(* daemon_mix: the daemon request path.

   Why: an in-process Server on a Unix socket with a temp cache_dir and
   the default config (2 workers, hot capacity 128), driven open-loop at
   one fixed offered rate by a seeded schedule from a generator process
   (see [run_job]).  The mix (Gen.daemon_schedule) is mostly warm Tune
   repeats over a working set twice the hot capacity (so the hot and disk
   tiers both serve) and Lookup misses, sent on min(nproc, 4) warm sender
   threads, plus cold Tunes of fresh ops and identical concurrent cold
   pairs (single-flight) on cold sender threads of their own, each thread
   owning one connection.  Framing, admission, single-flight, both cache
   tiers and the warm path do the work; cold tunes write
   (Plan_cache.store, journal, Obs_log append) beside the warm reads in
   every second of the run, so a gain for reads that costs writes shows
   up in the warm tail.  Cold tunes arrive in bursts of three for the
   two workers, so one of them waits in admission; with four cold
   senders the queue never reaches its capacity, so none is refused at
   the fixed rate. *)

open Amos
module Server = Amos_server.Server
module Client = Amos_server.Client
module Protocol = Amos_server.Protocol
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Batch_compile = Amos_service.Batch_compile
module Obs_log = Amos_learn.Obs_log

(* The fixed offered rate, arrivals per second: a quarter of the
   daemon's saturation rate for this mix, measured on a 2-core host with
   --rate sweeps (README.md).  Through 1,600/s it served everything within
   the goodput limit; from 2,000/s a tenth or more missed it, and at
   2,800/s a backlog built for the whole run.  The same host ran up to
   half as fast at other times, which halves the saturation rate too; a
   quarter keeps the offered load below half of it even then, where the
   latency percentiles do not yet climb with the load.  Cold bursts still
   queue in admission at this rate.  Lower rates were not steadier: at
   200/s the host's cores idled between requests, and waking the
   daemon's threads spread the warm p90 to an IQR of 0.32 of its median
   over five seeds, against 0.09 at this rate. *)
let rate = 500.
let working_set = 256
let cold_senders = 4
let accel_name = "v100"

type ctx = {
  dir : string;
  cache_dir : string;
  socket : string;
  server : Server.t;
  thread : Thread.t;
  sched : Gen.schedule;
  working : string array;  (** [sched.working_set], indexed *)
  fresh : string array;  (** [sched.fresh], indexed *)
  budget : Fingerprint.budget;
  warm_plans : Protocol.plan_wire array;  (** per working-set op, from set-up *)
}

let warm_senders () = max 1 (min 4 (Host.nproc ()))
let workers = (Server.default_config ~socket_path:"").Server.workers

let request budget text ~lookup =
  let op = Protocol.Dsl_text text in
  if lookup then Protocol.Lookup { accel = accel_name; op; budget }
  else Protocol.Tune { accel = accel_name; op; budget }

let plan_of = function
  | Ok (Protocol.Plan_r r) -> Some r.Protocol.plan
  | _ -> None

(* split [xs] over [k] threads, each with its own connection *)
let parallel ~k ~connect xs f =
  let parts = Array.make k [] in
  List.iteri (fun i x -> parts.(i mod k) <- x :: parts.(i mod k)) xs;
  let out = Array.make k [] in
  let threads =
    List.init k (fun j ->
        Thread.create
          (fun () ->
            let conn = connect () in
            Fun.protect
              ~finally:(fun () -> Client.close conn)
              (fun () -> out.(j) <- List.rev_map (f conn) parts.(j)))
          ())
  in
  List.iter Thread.join threads;
  Array.to_list out |> List.concat

let setup ~seed ~seconds ~rate () =
  let dir = Common.fresh_dir "daemon" in
  let socket = Filename.concat dir "d.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let server =
    Server.create
      { (Server.default_config ~socket_path:socket) with Server.cache_dir = Some cache_dir }
  in
  let thread = Thread.create Server.serve server in
  let budget = { Fingerprint.default_budget with Fingerprint.seed = Gen.budget_seed ~seed } in
  let sched =
    Gen.daemon_schedule ~seed ~rate ~seconds ~working_set ~warm_senders:(warm_senders ())
      ~cold_senders
  in
  let tuned =
    parallel ~k:2
      ~connect:(fun () -> Client.connect ~attempts:50 socket)
      (List.mapi (fun i t -> (i, t)) sched.Gen.working_set)
      (fun conn (i, text) ->
        match plan_of (Client.request_retry conn (request budget text ~lookup:false)) with
        | Some p -> (i, p)
        | None -> failwith "daemon_mix: set-up tune failed")
  in
  let warm_plans = Array.make working_set Protocol.Wire_scalar in
  List.iter (fun (i, p) -> warm_plans.(i) <- p) tuned;
  {
    dir;
    cache_dir;
    socket;
    server;
    thread;
    sched;
    working = Array.of_list sched.Gen.working_set;
    fresh = Array.of_list sched.Gen.fresh;
    budget;
    warm_plans;
  }

let teardown ctx =
  Server.stop ctx.server;
  Thread.join ctx.thread;
  Common.rm_rf ctx.dir

type sent = { req : Gen.request; id : int; reply : (Protocol.response, string) result }

(* The load generator runs in a helper process (see Helper), forked
   before the daemon starts: the measured process holds only the server,
   so the generator's threads never wait for the daemon's runtime lock
   and their lateness is not charged to the daemon.  A job is the socket
   and each sender's requests, built before the clock starts; the answer
   is the schedule's base time and every outcome. *)
type job = {
  socket_path : string;
  per_sender : (float * (int * Gen.request * Protocol.request)) list array;
}

type answer = (float * sent Loadgen.outcome list, string) result

(* the open loop: one thread per sender, each with its own connection *)
let run_job job : answer =
  try
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let k = Array.length job.per_sender in
    let conns = Array.init k (fun _ -> Client.connect ~attempts:50 job.socket_path) in
    let base = Common.now () +. 0.05 in
    let out = Array.make k [] in
    let threads =
      List.init k (fun s ->
          Thread.create
            (fun () ->
              out.(s) <-
                Loadgen.run ~now:Common.now ~sleep:Thread.delay ~base
                  ~send:(fun (id, r, p) -> { req = r; id; reply = Client.request conns.(s) p })
                  job.per_sender.(s))
            ())
    in
    List.iter Thread.join threads;
    Array.iter Client.close conns;
    Ok (base, Array.to_list out |> List.concat)
  with e -> Error (Printexc.to_string e)

let generator = ref None

let start_generator () = generator := Some (Helper.fork (Helper.serve_calls run_job))

let text_of ctx (r : Gen.request) =
  match r.Gen.kind with
  | Gen.Warm i -> ctx.working.(i)
  | Gen.Cold i | Gen.Cold_pair i | Gen.Miss i -> ctx.fresh.(i)

let to_protocol ctx (r : Gen.request) =
  let lookup = match r.Gen.kind with Gen.Miss _ -> true | _ -> false in
  request ctx.budget (text_of ctx r) ~lookup

let kind_name (r : Gen.request) =
  match r.Gen.kind with
  | Gen.Warm _ -> "warm"
  | Gen.Cold _ -> "cold"
  | Gen.Cold_pair _ -> "cold_pair"
  | Gen.Miss _ -> "miss"

let is_warm = function Gen.Warm _ -> true | _ -> false
let is_cold = function Gen.Cold _ -> true | _ -> false
let is_pair = function Gen.Cold_pair _ -> true | _ -> false
let is_miss = function Gen.Miss _ -> true | _ -> false

(* Hand the schedule to the generator and wait for every outcome, with
   the host speed probe running beside it (see Probe).  A traced run also
   reads the server's queue load every millisecond meanwhile: the share of
   readings with more tunes queued or running than workers is the share
   of the run in which admission held a tune back. *)
let drive ctx tr =
  let k = warm_senders () + cold_senders in
  let items =
    List.mapi (fun id r -> (id, r, to_protocol ctx r)) ctx.sched.Gen.requests
  in
  let per_sender =
    Array.init k (fun s ->
        List.filter_map
          (fun (id, (r : Gen.request), p) ->
            if r.Gen.sender = s then Some (r.Gen.due, (id, r, p)) else None)
          items)
  in
  let polling = Atomic.make true and polls = ref 0 and queued = ref 0 in
  let poller =
    Thread.create
      (fun () ->
        while Trace.enabled tr && Atomic.get polling do
          incr polls;
          if (Server.stats ctx.server).Protocol.queue_load > workers then incr queued;
          Thread.delay 0.001
        done)
      ()
  in
  let probe = Probe.create () in
  let answer : answer =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set polling false;
        Thread.join poller)
      (fun () ->
        Probe.beside probe (fun () ->
            Helper.call (Option.get !generator) { socket_path = ctx.socket; per_sender }))
  in
  let base, all =
    match answer with Ok r -> r | Error e -> failwith ("daemon_mix: load generator: " ^ e)
  in
  if List.length all <> List.length items then failwith "daemon_mix: a sender stopped early";
  let stop = List.fold_left (fun acc o -> Float.max acc o.Loadgen.recv) base all in
  (* spans are stamped by the generator; the root covers the schedule,
     so its self time is the time no request was outstanding *)
  let root = Trace.record tr "mix" ~start:base ~stop in
  List.iter
    (fun o ->
      ignore
        (Trace.record tr ~parent:root ~req:o.Loadgen.result.id
           (kind_name o.Loadgen.result.req) ~start:o.Loadgen.sent ~stop:o.Loadgen.recv))
    all;
  let queued_frac = float !queued /. float (max 1 !polls) in
  (all, stop -. base, Probe.median probe, queued_frac)

let succeeded ctx o =
  match (o.Loadgen.result.req.Gen.kind, o.Loadgen.result.reply) with
  | Gen.Warm i, Ok (Protocol.Plan_r r) -> r.Protocol.plan = ctx.warm_plans.(i)
  | (Gen.Cold _ | Gen.Cold_pair _), Ok (Protocol.Plan_r _) -> true
  | Gen.Miss _, Ok Protocol.Not_found_r -> true
  | _ -> false

(* simulated latency of a served plan over the scalar units' *)
let plan_ratio text plan =
  let accel = Option.get (Accelerator.by_name accel_name) in
  let op = Amos_ir.Dsl.parse_exn ~name:"wire-op" text in
  match plan with
  | Protocol.Wire_scalar -> 1.
  | Protocol.Wire_spatial body -> (
      match Plan_io.load accel op body with
      | Some (m, s) ->
          Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
            (Codegen.lower accel m s)
          /. Batch_compile.scalar_seconds accel op
      | None -> failwith "daemon_mix: served plan does not load")

(* every Plan_r for one fingerprint must carry the same plan *)
let consistent ctx outcomes =
  let seen = Hashtbl.create 512 in
  Array.iteri (fun i p -> Hashtbl.replace seen ctx.working.(i) p) ctx.warm_plans;
  List.for_all
    (fun o ->
      match o.Loadgen.result.reply with
      | Ok (Protocol.Plan_r r) -> (
          let text = text_of ctx o.Loadgen.result.req in
          match Hashtbl.find_opt seen text with
          | Some p -> p = r.Protocol.plan
          | None ->
              Hashtbl.add seen text r.Protocol.plan;
              true)
      | _ -> true)
    outcomes

let p50_of xs = if xs = [] then 0. else Stats.p50 (Stats.sorted xs)

let of_kind f os = List.filter (fun o -> f o.Loadgen.result.req.Gen.kind) os
let ms_from_due os = List.map (fun o -> Common.ms (Loadgen.latency o)) os
let rtt_ms os = List.map (fun o -> Common.ms (o.Loadgen.recv -. o.Loadgen.sent)) os

let layer_metrics ctx outcomes ~before ~after ~queued_frac =
  let warm = of_kind is_warm outcomes in
  let requests = List.map (fun o -> to_protocol ctx o.Loadgen.result.req) outcomes in
  let encode_s =
    Common.per_call (fun () -> List.iter (fun r -> ignore (Protocol.encode_request r)) requests)
    /. float (List.length requests)
  in
  let replies =
    List.filter_map
      (fun o ->
        match o.Loadgen.result.reply with
        | Ok (Protocol.Plan_r _ as r) -> Some (Protocol.encode_response r)
        | _ -> None)
      warm
  in
  let decode_s =
    Common.per_call (fun () -> List.iter (fun r -> ignore (Protocol.decode_response r)) replies)
    /. float (max 1 (List.length replies))
  in
  let health =
    Client.with_conn ~attempts:50 ctx.socket (fun conn ->
        List.init 200 (fun _ ->
            let t0 = Common.now () in
            ignore (Client.request conn Protocol.Health);
            Common.now () -. t0))
  in
  let accel = Option.get (Accelerator.by_name accel_name) in
  let ops = List.map (Amos_ir.Dsl.parse_exn ~name:"wire-op") ctx.sched.Gen.working_set in
  let reader = Plan_cache.create ~dir:ctx.cache_dir () in
  let values = ref [] in
  let lookup_s =
    Common.time (fun () ->
        List.iter
          (fun op ->
            match Plan_cache.lookup reader ~accel ~op ~budget:ctx.budget with
            | Some v -> values := (op, v) :: !values
            | None -> ())
          ops)
    |> snd
  in
  let writer = Plan_cache.create ~dir:(Common.fresh_dir "store") () in
  let store_s =
    Common.time (fun () ->
        List.iter
          (fun (op, v) -> Plan_cache.store writer ~accel ~op ~budget:ctx.budget v)
          !values)
    |> snd
  in
  let obs = Obs_log.scan ~dir:ctx.cache_dir () in
  let d f = float (f after - f before) in
  [
    Report.m "protocol.encode_us" (Common.us encode_s);
    Report.m "protocol.decode_us" (Common.us decode_s);
    Report.m "protocol.frame_bytes"
      (Stats.mean (List.map (fun r -> float (String.length r)) replies));
    Report.m "server.health_rtt_us" (Common.us (p50_of health));
    Report.m "server.lookup_miss_us" (1e3 *. p50_of (rtt_ms (of_kind is_miss outcomes)));
    Report.m "server.cold_p50_ms" (p50_of (ms_from_due (of_kind is_cold outcomes)));
    Report.m "server.tunes" (d (fun s -> s.Protocol.tunes));
    Report.m "hot_cache.hit_ratio"
      (d (fun s -> s.Protocol.hot_hits) /. float (max 1 (List.length warm)));
    Report.m "hot_cache.bytes" (float after.Protocol.hot_bytes);
    Report.m "single_flight.deduped" (d (fun s -> s.Protocol.deduped));
    Report.m "admission.busy" (d (fun s -> s.Protocol.busy_rejections));
    Report.m "admission.deadline_rejections" (d (fun s -> s.Protocol.deadline_rejections));
    Report.m "admission.queued_frac" queued_frac;
    Report.m "plan_cache.lookup_us" (Common.us lookup_s /. float (List.length ops));
    Report.m "plan_cache.store_us" (Common.us store_s /. float (max 1 (List.length !values)));
    Report.m "plan_cache.disk_hits" (float (Plan_cache.stats reader).Plan_cache.hits);
    Report.m "plan_cache.disk_bytes" (float (Plan_cache.disk_bytes reader));
    Report.m "obs_log.records" (float obs.Obs_log.records);
    Report.m "obs_log.bytes" (float obs.Obs_log.bytes);
    Report.m "loadgen.late_p99_ms"
      (Common.ms (Stats.percentile (Stats.sorted (List.map Loadgen.lateness outcomes)) 990));
  ]

(* Warm latency is the round trip (send to reply); the tail is the p90 of
   every warm request of the run, and the p99 is printed beside it.  Above
   the p90 the round trip was set by how the 2-core host scheduled the
   daemon's domains and threads more than by the daemon: two ten-seed sets
   on a loaded host spread the warm p99 to an IQR of 0.6 and 0.8 of its
   median, where the median stayed within a quarter.  Latency from the due
   time also charges the generator: how late its thread woke for the
   send, and its queueing behind a slow reply on the same connection.  On
   the 2-core host this benchmark was sized on, that came from host
   scheduling stalls (it stayed with no cold tune in the mix): at 800
   arrivals/s across five seeds it put the due-time p99 anywhere from 27
   to 45 ms against 5.6 to 7.5 ms for the round trip.  The due-time
   percentiles are printed beside them, and the goodput, which a backlog
   moves first, stays due-time based. *)
let warm_tail_q10 = 900

let run ~seed ~seconds ~tr ~limit_ms ~rate =
  let ctx, setups =
    Common.repeated_setup ~reps:5 ~setup:(setup ~seed ~seconds ~rate) ~teardown
  in
  let setup_s = Common.median setups in
  Fun.protect
    ~finally:(fun () -> teardown ctx)
    (fun () ->
      let before = Server.stats ctx.server in
      let outcomes, span, probe_s, queued_frac = drive ctx tr in
      let after = Server.stats ctx.server in
      let ok = List.filter (succeeded ctx) outcomes in
      let warm_ms = ms_from_due (of_kind is_warm ok) in
      let warm_rtt = rtt_ms (of_kind is_warm ok) in
      let tail, tail_notes = Common.tail_metric ~what:"warm_rtt" ~q10:warm_tail_q10 warm_rtt in
      let due_p q10 = Printf.sprintf "%.6f" (Stats.percentile (Stats.sorted warm_ms) q10) in
      let rtt_p q10 = Printf.sprintf "%.6f" (Stats.percentile (Stats.sorted warm_rtt) q10) in
      let good =
        List.filter (fun o -> Common.ms (Loadgen.latency o) <= limit_ms) ok
      in
      let ratios =
        List.mapi (fun i text -> plan_ratio text ctx.warm_plans.(i)) ctx.sched.Gen.working_set
      in
      let layers =
        if Trace.enabled tr then layer_metrics ctx outcomes ~before ~after ~queued_frac else []
      in
      let count f = string_of_int (List.length (of_kind f outcomes)) in
      {
        Common.setup_s;
        e2e =
          [
            Report.m "p50_ms" (Stats.p50 (Stats.sorted warm_rtt));
            Report.m "tail_ms" tail;
            Report.m "rate_per_s" (float (List.length good) /. seconds);
            Report.m "plan_x" (Stats.geomean ratios);
          ];
        layers;
        attempted = List.length outcomes;
        failed = List.length outcomes - List.length ok;
        checks = [ ("one_plan_per_fingerprint", consistent ctx outcomes) ];
        notes =
          [
            ("offered_rate_per_s", Printf.sprintf "%g" rate);
            ("warm_senders", string_of_int (warm_senders ()));
            ("cold_senders", string_of_int cold_senders);
            ("limit_ms", Printf.sprintf "%g" limit_ms);
            ("schedule_span_s", Printf.sprintf "%.6f" span);
            ("warm", count is_warm);
            ("cold", count is_cold);
            ("cold_pair", count is_pair);
            ("miss", count is_miss);
            ("cold_p50_ms", Printf.sprintf "%.6f" (p50_of (ms_from_due (of_kind is_cold ok))));
            ("warm_rtt_p95_ms", rtt_p 950);
            ("warm_rtt_p99_ms", rtt_p 990);
            ("warm_due_p50_ms", due_p 500);
            ("warm_due_p95_ms", due_p 950);
            ("warm_due_p99_ms", due_p 990);
          ]
          @ tail_notes;
        unit_span = "mix";
        probe_s;
        rate_is_work = false;
      })
