(* Helpers every workload shares. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type outcome = {
  setup_s : float;  (** median of the run's set-ups *)
  e2e : Report.metric list;  (** every end-to-end metric but the two main adds *)
  layers : Report.metric list;  (** per-layer metrics the workload measured *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** correctness checks, outside timing *)
  notes : (string * string) list;  (** sample counts, percentile labels *)
  unit_span : string;  (** the span around one unit of timed work *)
  probe_s : float option;
      (** median reference-kernel time during the timed phase (see
          Probe); [None] when no probe ran, and timings are reported
          raw *)
  rate_is_work : bool;
      (** [rate_per_s] counts work done per second, so it follows host
          speed and is scaled with the timings; [false] when the fixed
          offered rate bounds it *)
}

(* Set up [reps] times and keep the last; returns it and every set-up's
   time.  Set-up time is reported as a median, so one slow set-up cannot
   move it. *)
let repeated_setup ~reps ~setup ~teardown =
  let rec go i times =
    let ctx, dt = time setup in
    if i + 1 < reps then begin
      teardown ctx;
      go (i + 1) (dt :: times)
    end
    else (ctx, dt :: times)
  in
  go 0 []

(* [reps] more set-ups, each torn down at once, for their times only *)
let setup_times ~reps ~setup ~teardown =
  List.init reps (fun _ ->
      let ctx, dt = time setup in
      teardown ctx;
      dt)

let median xs = Stats.p50 (Stats.sorted xs)

(* Repeat [unit] until [seconds] have elapsed and at least [min_units]
   ran; returns the results in order and the wall time spent. *)
let run_for ~seconds ~min_units unit =
  let t0 = now () in
  let rec go n acc =
    if n >= min_units && now () -. t0 >= seconds then List.rev acc
    else go (n + 1) (unit () :: acc)
  in
  let r = go 0 [] in
  (r, now () -. t0)

let work_dir = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* a fresh directory for one set-up's sockets and caches, inside the
   checkout; relative, so socket paths stay short *)
let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat work_dir
        (Printf.sprintf "run-%d/%s%d" (Unix.getpid ()) tag !n)
    in
    rm_rf d;
    mkdir_p d;
    d

let cleanup () =
  rm_rf (Filename.concat work_dir (Printf.sprintf "run-%d" (Unix.getpid ())))

(* The tail a workload reports, at a percentile fixed per workload so the
   label does not change with how fast the host happened to run: the
   highest ladder percentile with ten samples beyond it at the workload's
   guaranteed sample count (tune_single p99 at 1,000 tunes), but p90 for
   single requests (daemon_mix, fleet_hop), whose latencies above that are
   set by host scheduling stalls rather than by the program.  Fails when
   the run has fewer than ten samples beyond it. *)
let tail_metric ~what ~q10 samples_ms =
  let a = Stats.sorted samples_ms in
  let n = Array.length a in
  if Stats.beyond ~n q10 < 10 then
    failwith (Printf.sprintf "%s: %d samples cannot support %s" what n (Stats.label q10));
  ( Stats.percentile a q10,
    [ (what ^ "_tail", Stats.label q10); (what ^ "_samples", string_of_int n) ] )

let ms s = 1e3 *. s
let us s = 1e6 *. s

(* mean cost of [f] in seconds, repeating it for at least 20 ms so that
   clock resolution does not dominate *)
let per_call f =
  let t0 = now () in
  let rec go n =
    f ();
    let dt = now () -. t0 in
    if dt >= 0.02 then dt /. float n else go (n + 1)
  in
  go 1
