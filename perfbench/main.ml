(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 --limit-ms L

   runs one workload (see the Wl_* modules for what each runs and why),
   checks its outputs, prints every metric by name with its unit, writes
   a results file with the host block under .perfbench/, and ends with
   one JSON line.  --trace 0 reports the end-to-end metrics; --trace 1
   records spans around the calls into each layer and reports the
   per-layer metrics instead.  Exits 1 when a correctness check fails. *)

(* BENCHMARK.json lists compile_cold and tune_single; daemon_mix and
   fleet_hop run alone for sizing and diagnosis, and briefly inside
   compile_cold's traced run (see [service_layers]). *)
let workloads = [ "compile_cold"; "tune_single"; "daemon_mix"; "fleet_hop" ]

let usage =
  "main.exe --workload {" ^ String.concat "|" workloads
  ^ "} --seed N --seconds S --trace 0|1 --limit-ms L"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let trace_metrics tr ~unit_span =
  let spans = Trace.spans tr in
  let units, self =
    List.fold_left
      (fun (d, s) ((sp : Trace.span), self) ->
        if sp.Trace.name = unit_span then (d +. Trace.duration sp, s +. self) else (d, s))
      (0., 0.) (Trace.self_times spans)
  in
  let cost = Trace.span_cost () in
  [
    Report.m "trace.spans" (float (List.length spans));
    Report.m "trace.unit_self_frac" (if units > 0. then self /. units else 0.);
    Report.m "trace.overhead_frac"
      (if units > 0. then float (List.length spans) *. cost /. units else 0.);
  ]

(* An end-to-end timing scaled to the probe's nominal host speed (see
   Probe); sizes and ratios are not timings. *)
let scaled ~probe_s ~rate_is_work (x : Report.metric) =
  let k = Probe.nominal_s /. probe_s in
  match x.Report.unit_ with
  | "s" | "ms" -> { x with Report.value = x.Report.value *. k }
  | "1/s" when rate_is_work -> { x with Report.value = x.Report.value /. k }
  | _ -> x

(* The request paths' per-layer metrics and correctness checks, from a
   short daemon_mix and a short fleet_hop after compile_cold's traced run.
   Their medians are kept as per-layer metrics, raw; their end-to-end
   numbers are not reported: on the 2-core sizing host their latencies
   swung with the host's load far more than any bound (README.md). *)
let service_layers ~seed ~tr ~limit_ms (o : Common.outcome) =
  let d = Wl_daemon.run ~seed ~seconds:5. ~tr ~limit_ms ~rate:Wl_daemon.rate in
  let f = Wl_fleet.run ~seed ~seconds:3. ~tr in
  let fleet_only (x : Report.metric) = String.starts_with ~prefix:"fleet." x.Report.name in
  let p50_as name (w : Common.outcome) =
    let x = List.find (fun (x : Report.metric) -> x.Report.name = "p50_ms") w.Common.e2e in
    Report.m name x.Report.value
  in
  {
    o with
    Common.layers =
      o.Common.layers @ d.Common.layers
      @ List.filter fleet_only f.Common.layers
      @ [ p50_as "server.warm_p50_ms" d; p50_as "fleet.peer_p50_ms" f ];
    checks = o.Common.checks @ d.Common.checks @ f.Common.checks;
  }

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and limit_ms = ref 0. and rate = ref Wl_daemon.rate in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--limit-ms", Arg.Set_float limit_ms, "L  goodput latency limit");
      ( "--rate",
        Arg.Set_float rate,
        "R  daemon_mix offered requests/s (default: the benchmark's fixed rate; \
         for sizing sweeps only)" );
    ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  if not (List.mem !workload workloads) then die ("unknown workload; " ^ usage);
  if !seed < 0 then die "--seed must be >= 0";
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !limit_ms <= 0. then die "--limit-ms must be > 0";
  if !rate <= 0. then die "--rate must be > 0";
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then
    die "run from the root of a repository checkout";
  Common.mkdir_p Common.work_dir;
  at_exit Helper.stop_all;
  Probe.start ();
  let traced = !trace = 1 in
  if !workload = "daemon_mix" || (traced && !workload = "compile_cold") then
    Wl_daemon.start_generator ();
  let tr = Trace.create ~enabled:traced () in
  let seconds = float !seconds in
  let o =
    try
      match !workload with
      | "compile_cold" ->
          let o = Wl_compile.run ~seed:!seed ~seconds ~tr in
          if traced then service_layers ~seed:!seed ~tr ~limit_ms:!limit_ms o else o
      | "tune_single" -> Wl_tune.run ~seed:!seed ~seconds ~tr
      | "daemon_mix" -> Wl_daemon.run ~seed:!seed ~seconds ~tr ~limit_ms:!limit_ms ~rate:!rate
      | _ -> Wl_fleet.run ~seed:!seed ~seconds ~tr
    with e ->
      Common.cleanup ();
      prerr_endline ("perfbench: workload raised " ^ Printexc.to_string e);
      exit 1
  in
  Common.cleanup ();
  let raw =
    Report.m "setup_s" o.Common.setup_s
    :: Report.m "peak_rss_mb" (float (Host.vm_hwm_kb ()) /. 1024.)
    :: o.Common.e2e
  in
  let e2e =
    match o.Common.probe_s with
    | Some probe_s -> List.map (scaled ~probe_s ~rate_is_work:o.Common.rate_is_work) raw
    | None -> raw
  in
  let layers =
    if traced then
      Report.complete_layers (o.Common.layers @ trace_metrics tr ~unit_span:o.Common.unit_span)
    else []
  in
  let reported = if traced then layers else e2e in
  Report.check_names ~expected:(if traced then Report.per_layer else Report.end_to_end) reported;
  let host = Host.block ~seed:!seed in
  let correct = List.for_all snd o.Common.checks in
  let failed_frac = float o.Common.failed /. float (max 1 o.Common.attempted) in
  Printf.printf "perfbench %s (seed %d, %.0f s, trace %b)\n" !workload !seed seconds traced;
  List.iter (fun (k, v) -> Printf.printf "  host.%s = %s\n" k v) host;
  (match o.Common.probe_s with
   | Some probe_s ->
       Printf.printf
         "host probe: %.6f ms per kernel (nominal %.6f ms); timings scaled by %.6f\n"
         (Common.ms probe_s) (Common.ms Probe.nominal_s) (Probe.nominal_s /. probe_s);
       Report.print_table "end-to-end (raw):" raw;
       Report.print_table "end-to-end (scaled to nominal host speed):" e2e
   | None -> Report.print_table "end-to-end:" e2e);
  if traced then Report.print_table "per-layer:" layers;
  Printf.printf "samples:\n";
  List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) o.Common.notes;
  Printf.printf "  attempted = %d, failed = %d, failed_frac = %.6f\n" o.Common.attempted
    o.Common.failed failed_frac;
  Printf.printf "checks:\n";
  List.iter (fun (k, ok) -> Printf.printf "  %-36s %s\n" k (if ok then "ok" else "FAILED"))
    o.Common.checks;
  if traced then begin
    Printf.printf "span self time (count, total ms, self ms):\n";
    List.iter
      (fun (name, (n, d, s)) ->
        Printf.printf "  %-24s %8d %12.3f %12.3f\n" name n (Common.ms d) (Common.ms s))
      (Trace.summary (Trace.spans tr))
  end;
  let stem =
    Filename.concat Common.work_dir
      (Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace)
  in
  Report.write_results (stem ^ ".json") ~host ~workload:!workload ~seed:!seed ~trace:traced
    ~seconds:(int_of_float seconds) ~correct ~attempted:o.Common.attempted
    ~failed:o.Common.failed ~checks:o.Common.checks
    ~notes:
      (List.map
         (fun (x : Report.metric) -> ("raw." ^ x.Report.name, Report.json_number x.Report.value))
         raw
      @ (match o.Common.probe_s with
        | Some p -> [ ("probe_ms", Printf.sprintf "%.6f" (Common.ms p)) ]
        | None -> [])
      @ o.Common.notes)
    (e2e @ layers);
  if traced then Trace.write_jsonl tr (stem ^ ".spans.jsonl");
  Printf.printf "results: %s.json\n" stem;
  print_endline
    (Report.json_line ~correct ~attempted:o.Common.attempted ~failed:o.Common.failed reported);
  exit (if correct then 0 else 1)
