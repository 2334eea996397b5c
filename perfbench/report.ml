(* Metric names, units and output.  The two lists below are the contract
   with BENCHMARK.json: an untraced run reports every end-to-end metric,
   a traced run every per-layer metric, and [check_names] refuses to
   print anything else. *)

type metric = { name : string; value : float; unit_ : string }

let end_to_end =
  [
    ("setup_s", "s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("rate_per_s", "1/s");
    ("plan_x", "x");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("mapping_gen.ms", "ms");
    ("mapping_gen.mappings", "count");
    ("matching.validate_us", "us");
    ("matching.feasible_ratio", "ratio");
    ("explore.screen_ms", "ms");
    ("explore.screen_evals", "count");
    ("explore.survivors", "count");
    ("explore.survivor_ratio", "ratio");
    ("explore.search_ms", "ms");
    ("explore.search_evals", "count");
    ("explore.evals_per_s", "1/s");
    ("perf_model.predict_us", "us");
    ("sim.measurements", "count");
    ("sim.measure_us", "us");
    ("sim.measure_share", "ratio");
    ("par_tune.speedup", "x");
    ("par_tune.tune_ms", "ms");
    ("batch_compile.stages", "count");
    ("batch_compile.unique_ratio", "ratio");
    ("batch_compile.tuned", "count");
    ("batch_compile.degraded", "count");
    ("batch_compile.overhead_ms", "ms");
    ("plan_cache.lookup_us", "us");
    ("plan_cache.store_us", "us");
    ("plan_cache.disk_hits", "count");
    ("plan_cache.disk_bytes", "bytes");
    ("obs_log.records", "count");
    ("obs_log.bytes", "bytes");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("protocol.frame_bytes", "bytes");
    ("server.warm_p50_ms", "ms");
    ("server.health_rtt_us", "us");
    ("server.lookup_miss_us", "us");
    ("server.cold_p50_ms", "ms");
    ("server.tunes", "count");
    ("hot_cache.hit_ratio", "ratio");
    ("hot_cache.bytes", "bytes");
    ("single_flight.deduped", "count");
    ("admission.busy", "count");
    ("admission.deadline_rejections", "count");
    ("admission.queued_frac", "ratio");
    ("fleet.peer_p50_ms", "ms");
    ("fleet.connect_ms", "ms");
    ("fleet.local_hot_us", "us");
    ("fleet.cold_tune_ms", "ms");
    ("fleet.forwarded", "count");
    ("fleet.peer_hits", "count");
    ("fleet.peer_fallbacks", "count");
    ("loadgen.late_p99_ms", "ms");
    ("trace.spans", "count");
    ("trace.unit_self_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Report: unknown metric " ^ name)

let m name value = { name; value; unit_ = unit_of name }

(* A traced run reports every per-layer metric: a layer the workload
   bypasses did no work, so it reads 0. *)
let complete_layers measured =
  List.map
    (fun (name, _) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name 0.)
    per_layer

let check_names ~expected metrics =
  let got = List.map (fun x -> x.name) metrics |> List.sort compare in
  let want = List.map fst expected |> List.sort compare in
  if got <> want then
    failwith
      (Printf.sprintf "metric set mismatch: got [%s], want [%s]"
         (String.concat " " got) (String.concat " " want));
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        failwith ("non-finite metric " ^ x.name))
    metrics

let json_number v = Printf.sprintf "%.17g" v

let json_metrics metrics =
  List.map
    (fun x ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
        x.unit_)
    metrics
  |> String.concat ", "

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (json_metrics metrics)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-32s %18.6f %s\n" x.name x.value x.unit_)
    metrics

let json_string_pairs pairs =
  List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) pairs
  |> String.concat ", "

(* the results file: host block, run identity, every metric and note *)
let write_results path ~host ~workload ~seed ~trace ~seconds ~correct
    ~attempted ~failed ~checks ~notes metrics =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"host\": {%s},\n" (json_string_pairs host);
  Printf.fprintf oc
    "  \"workload\": %S, \"seed\": %d, \"trace\": %b, \"seconds\": %d,\n"
    workload seed trace seconds;
  Printf.fprintf oc
    "  \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"failed_frac\": %s,\n"
    correct attempted failed
    (json_number (float failed /. float (max 1 attempted)));
  Printf.fprintf oc "  \"checks\": {%s},\n"
    (List.map (fun (k, ok) -> Printf.sprintf "%S: %b" k ok) checks
    |> String.concat ", ");
  Printf.fprintf oc "  \"notes\": {%s},\n" (json_string_pairs notes);
  Printf.fprintf oc "  \"metrics\": {%s}\n}\n" (json_metrics metrics);
  close_out oc
