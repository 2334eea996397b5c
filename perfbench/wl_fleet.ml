(* fleet_hop: the peer hop.

   Why: two in-process daemons over TCP loopback with a shared token; B is
   routed by Fleet.  During set-up A tunes 500 distinct fingerprints the
   ring assigns to A.  The timed phase sends one Lookup per fingerprint to
   B, closed loop on one connection, so each one is a peer hop: B misses
   both its tiers, forwards over a fresh TCP connect + hello, and serves
   A's plan from A's hot tier.  B is restarted on the same port between rounds (same ring,
   empty caches) so a fingerprint is never served from B's own hot cache.
   This is the only workload that exercises Fleet, Net_io, Auth, Breaker
   and the per-forward connect; ROADMAP item 5 decides the fleet's fate
   from this number against a local cold tune. *)

open Amos
module Server = Amos_server.Server
module Client = Amos_server.Client
module Protocol = Amos_server.Protocol
module Transport = Amos_server.Transport
module Fingerprint = Amos_service.Fingerprint
module Fleet = Amos_fleet.Fleet

let owned = 500
let token = "perfbench-fleet"
let accel_name = "v100"
let host = "127.0.0.1"

type daemon = { server : Server.t; thread : Thread.t; port : int }

let start config =
  let server = Server.create config in
  let thread = Thread.create Server.serve server in
  { server; thread; port = Option.get (Server.tcp_port server) }

let stop d =
  Server.stop d.server;
  Thread.join d.thread

let tcp_config ?cache_dir port =
  {
    (Server.default_config ~socket_path:"unused") with
    Server.socket_path = None;
    tcp = Some (host, port);
    auth_token = Some token;
    cache_dir;
  }

(* A holds its whole owned set in the hot tier, so a forward measures the
   hop (connect, hello, framing, B's re-admission) rather than A's disk
   tier, which daemon_mix covers *)
let owner_config ~dir = { (tcp_config ~cache_dir:dir 0) with Server.hot_capacity = 2 * owned }

let addr d = Printf.sprintf "%s:%d" host d.port

(* B joins the fleet; A stays router-less so its answers are local *)
let start_b ~a ~port =
  let b = start (tcp_config port) in
  let fleet =
    Fleet.create
      { (Fleet.default_config ~self:(addr b) ~peers:[ addr a ]) with Fleet.token; timeout_s = 5. }
  in
  Server.set_router b.server (Fleet.router fleet);
  (b, fleet)

let connect d = Client.connect_endpoint ~attempts:50 ~token (Transport.Tcp { host; port = d.port })

type ctx = {
  dir : string;
  a : daemon;
  mutable b : daemon;
  budget : Fingerprint.budget;
  ops : (string * Protocol.plan_wire) array;  (** A-owned DSL text, A's plan *)
  tune_s : float list;  (** A's cold tunes during set-up *)
}

let setup ~seed () =
  let dir = Common.fresh_dir "fleet" in
  let a = start (owner_config ~dir:(Filename.concat dir "a")) in
  let b, fleet = start_b ~a ~port:0 in
  let budget = { Fingerprint.default_budget with Fingerprint.seed = Gen.budget_seed ~seed } in
  let accel = Option.get (Accelerator.by_name accel_name) in
  let texts =
    Gen.fleet_candidates ~seed (4 * owned)
    |> List.filter (fun text ->
           let op = Amos_ir.Dsl.parse_exn ~name:"wire-op" text in
           Fleet.owner fleet (Fingerprint.key ~accel ~op ~budget) = Some (addr a))
    |> List.filteri (fun i _ -> i < owned)
  in
  if List.length texts < owned then failwith "fleet_hop: too few A-owned fingerprints";
  let tuned =
    Wl_daemon.parallel ~k:2 ~connect:(fun () -> connect a) texts (fun conn text ->
        let t0 = Common.now () in
        let req = Protocol.Tune { accel = accel_name; op = Protocol.Dsl_text text; budget } in
        match Client.request_retry conn req with
        | Ok (Protocol.Plan_r r) -> (text, r.Protocol.plan, Common.now () -. t0)
        | _ -> failwith "fleet_hop: set-up tune on A failed")
  in
  (* back in the generated order, so rounds walk a seeded sequence *)
  let by_text = Hashtbl.create owned in
  List.iter (fun (t, p, _) -> Hashtbl.replace by_text t p) tuned;
  {
    dir;
    a;
    b;
    budget;
    ops = Array.of_list (List.map (fun t -> (t, Hashtbl.find by_text t)) texts);
    tune_s = List.map (fun (_, _, s) -> s) tuned;
  }

let teardown ctx =
  stop ctx.b;
  stop ctx.a;
  Common.rm_rf ctx.dir

(* one timed lookup, reduced to what the metrics and checks need so that
   memory does not grow with the number of lookups *)
type lookup = { round : int; wall : float; peer : bool; same : bool }

let lookup_req ctx text =
  Protocol.Lookup { accel = accel_name; op = Protocol.Dsl_text text; budget = ctx.budget }

let served_by_peer = function
  | Ok (Protocol.Plan_r r) -> r.Protocol.source = "peer"
  | _ -> false

let same_plan plan = function
  | Ok (Protocol.Plan_r r) -> r.Protocol.plan = plan
  | _ -> true

(* Rounds over the A-owned set until [seconds] pass; each round after the
   first restarts B on its port, and the probe runs before each round
   while no lookup is outstanding.  Returns the lookups, B's counters, the
   rounds run, the time spent looking up (restarts excluded) and the
   first round's requests and replies. *)
let rounds ctx tr probe ~seconds =
  let t0 = Common.now () in
  let looked = ref 0. in
  let first_round = ref [] in
  let zero = (0, 0, 0) in
  let add (f, h, p) (s : Protocol.server_stats) =
    (f + s.Protocol.forwarded, h + s.Protocol.peer_hits, p + s.Protocol.peer_fallbacks)
  in
  let rec round r acc counters =
    if r > 0 then begin
      let port = ctx.b.port in
      stop ctx.b;
      ctx.b <- fst (start_b ~a:ctx.a ~port)
    end;
    Probe.sample probe;
    let conn = connect ctx.b in
    let rec go i acc =
      if i = Array.length ctx.ops || Common.now () -. t0 >= seconds then (acc, i)
      else
        let text, plan = ctx.ops.(i) in
        let req = lookup_req ctx text in
        let reply, wall =
          Common.time (fun () ->
              Trace.with_span tr ~req:((r * owned) + i) "lookup" (fun _ -> Client.request conn req))
        in
        if r = 0 then first_round := (req, reply) :: !first_round;
        go (i + 1) ({ round = r; wall; peer = served_by_peer reply; same = same_plan plan reply } :: acc)
    in
    let (acc, reached), dt = Common.time (fun () -> go 0 acc) in
    looked := !looked +. dt;
    Client.close conn;
    let counters = add counters (Server.stats ctx.b.server) in
    if reached < Array.length ctx.ops then (List.rev acc, counters, r + 1)
    else round (r + 1) acc counters
  in
  let lookups, counters, n = round 0 [] zero in
  (lookups, counters, n, !looked, !first_round)

(* Each whole round's p90 and lookups per second of lookup time.  The
   tail and the rate are medians of these over the rounds: a round is a
   third of a second, and a stall of the shared host that covers a few
   of them moves the whole-run p90 and mean but not the median round. *)
let per_round peer =
  let by = Hashtbl.create 64 in
  List.iter
    (fun l -> Hashtbl.replace by l.round (l :: Option.value ~default:[] (Hashtbl.find_opt by l.round)))
    peer;
  Hashtbl.fold
    (fun _ ls acc ->
      if List.length ls < owned then acc
      else
        let ms = List.map (fun l -> Common.ms l.wall) ls in
        (Stats.percentile (Stats.sorted ms) 900, float owned /. (Stats.sum ms /. 1e3)) :: acc)
    by []

let plan_ratio (text, plan) = Wl_daemon.plan_ratio text plan

let layer_metrics ctx first_round (forwarded, hits, fallbacks) =
  let p50 xs = Stats.p50 (Stats.sorted xs) in
  let connect_s =
    List.init 50 (fun _ ->
        Common.time (fun () ->
            Client.close
              (Client.connect_endpoint ~token ~peer:true (Transport.Tcp { host; port = ctx.a.port })))
        |> snd)
  in
  let sample = Array.to_list (Array.sub ctx.ops 0 200) in
  let local_s =
    let conn = connect ctx.a in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        List.map
          (fun (text, _) ->
            (* the first lookup admits the plan to A's hot cache *)
            ignore (Client.request conn (lookup_req ctx text));
            snd (Common.time (fun () -> Client.request conn (lookup_req ctx text))))
          sample)
  in
  let requests = List.map fst first_round in
  let replies =
    List.filter_map
      (fun (_, reply) -> Result.to_option (Result.map Protocol.encode_response reply))
      first_round
  in
  let per xs f = Common.per_call (fun () -> List.iter f xs) /. float (max 1 (List.length xs)) in
  [
    Report.m "fleet.connect_ms" (Common.ms (p50 connect_s));
    Report.m "fleet.local_hot_us" (Common.us (p50 local_s));
    Report.m "fleet.cold_tune_ms" (Common.ms (p50 ctx.tune_s));
    Report.m "fleet.forwarded" (float forwarded);
    Report.m "fleet.peer_hits" (float hits);
    Report.m "fleet.peer_fallbacks" (float fallbacks);
    Report.m "protocol.encode_us" (Common.us (per requests (fun r -> ignore (Protocol.encode_request r))));
    Report.m "protocol.decode_us" (Common.us (per replies (fun r -> ignore (Protocol.decode_response r))));
    Report.m "protocol.frame_bytes"
      (Stats.mean (List.map (fun r -> float (String.length r)) replies));
  ]

let run ~seed ~seconds ~tr =
  let ctx, setups = Common.repeated_setup ~reps:5 ~setup:(setup ~seed) ~teardown in
  let setup_s = Common.median setups in
  Fun.protect
    ~finally:(fun () -> teardown ctx)
    (fun () ->
      let probe = Probe.create () in
      let lookups, counters, n_rounds, timed_wall, first_round =
        rounds ctx tr probe ~seconds
      in
      let peer = List.filter (fun l -> l.peer) lookups in
      let peer_ms = List.map (fun l -> Common.ms l.wall) peer in
      let tail, tail_notes = Common.tail_metric ~what:"peer" ~q10:900 peer_ms in
      let per_round = per_round peer in
      let layers =
        if Trace.enabled tr then layer_metrics ctx first_round counters else []
      in
      {
        Common.setup_s;
        e2e =
          [
            Report.m "p50_ms" (Common.median peer_ms);
            Report.m "tail_ms" (Common.median (List.map fst per_round));
            Report.m "rate_per_s" (Common.median (List.map snd per_round));
            Report.m "plan_x" (Stats.geomean (List.map plan_ratio (Array.to_list ctx.ops)));
          ];
        layers;
        attempted = List.length lookups;
        failed = List.length lookups - List.length peer;
        checks = [ ("peer_plan_equals_owner_plan", List.for_all (fun l -> l.same) lookups) ];
        notes =
          [
            ("owned_fingerprints", string_of_int (Array.length ctx.ops));
            ("rounds", string_of_int n_rounds);
            ("whole_rounds", string_of_int (List.length per_round));
            ("peer_p90_ms", Printf.sprintf "%.6f" tail);
            ("peer_p99_ms", Printf.sprintf "%.6f" (Stats.percentile (Stats.sorted peer_ms) 990));
            ("peer_lookups_per_s", Printf.sprintf "%.6f" (float (List.length peer) /. timed_wall));
            ("cold_tune_p50_ms", Printf.sprintf "%.6f" (Common.ms (Stats.p50 (Stats.sorted ctx.tune_s))));
          ]
          @ tail_notes;
        unit_span = "lookup";
        probe_s = Probe.median probe;
        rate_is_work = true;
      })
