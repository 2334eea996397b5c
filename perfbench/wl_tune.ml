(* tune_single: the paper core with no service layer.

   Why: cold Explore.tune_op at jobs 1 with the default budget (16 x 8,
   measure_top 3) over every suite op x {a100, v100, avx512}, 339 tunes
   per pass in a seeded order.  Mapping generation, Algorithm 1, the
   model screen, the genetic search and simulator measurement dominate;
   the heavy tail (ops with thousands of mappings) is where mapping-space
   limits and Mapping_gen work show.  Par_tune, caches and dedup are
   bypassed.  Whole passes only, so every run tunes the same set and no
   heavy op is dropped from the tail. *)

open Amos
module Rng = Amos_tensor.Rng
module Suites = Amos_workloads.Suites
module Ops = Amos_workloads.Ops
module Batch_compile = Amos_service.Batch_compile

let population = 16
let generations = 8
let measure_top = 3

type item = { accel : Accelerator.t; op : Amos_ir.Operator.t }

type ctx = { items : item list; seed : int }

let resolve (d : Gen.suite_op) =
  let accel =
    match Accelerator.by_name d.Gen.accel with
    | Some a -> a
    | None -> failwith ("unknown accelerator " ^ d.Gen.accel)
  in
  let kind = List.find (fun k -> Ops.kind_name k = d.Gen.kind) Ops.all_kinds in
  { accel; op = List.nth (Suites.configs_per_kind ~batch:1 kind) d.Gen.index }

(* per-tune counters the traced path collects *)
type counts = {
  mutable mappings : int;
  mutable screen_evals : int;
  mutable search_evals : int;
  mutable survivors : int;
  mutable measurements : int;
}

let untraced ctx item =
  Explore.tune_op ~population ~generations ~measure_top
    ~rng:(Rng.create ctx.seed) ~accel:item.accel item.op

(* The first configuration of every kind on every accelerator, tuned
   once before timing: heap growth and lazily built tables are paid in
   set-up, not by the first timed tunes.  Fixed, so set-up does the same
   work for every seed. *)
let warm_up =
  List.concat_map
    (fun accel -> List.map (fun k -> { Gen.accel; kind = Ops.kind_name k; index = 0 }) Ops.all_kinds)
    Gen.tune_accels

let setup ~seed () =
  let ctx = { items = List.map resolve (Gen.tune_order ~seed); seed = Gen.budget_seed ~seed } in
  List.iter (fun d -> ignore (untraced ctx (resolve d))) warm_up;
  ctx

(* Explore.tune_op composed from its public primitives, one span per
   phase.  It must equal [untraced] bit for bit (checked after the timed
   phase). *)
let traced ctx tr counts item =
  Trace.with_span tr "tune" (fun parent ->
      let rng = Rng.create ctx.seed in
      let accel = item.accel in
      let mappings =
        Trace.with_span tr ~parent "mapping_gen" (fun _ ->
            Compiler.mappings accel item.op)
      in
      counts.mappings <- counts.mappings + List.length mappings;
      match mappings with
      | [] -> None
      | _ ->
          (* Explore.tune's historical draw; results do not depend on it *)
          ignore (Rng.int rng 1_000_000_000);
          let evals = ref 0 and failures = ref [] in
          let fail m e = failures := (Mapping.describe m, Printexc.to_string e) :: !failures in
          let screened =
            Trace.with_span tr ~parent "screen" (fun _ ->
                List.filter_map
                  (fun m ->
                    match Explore.screen_mapping ~accel m with
                    | best, n ->
                        evals := !evals + n;
                        counts.screen_evals <- counts.screen_evals + n;
                        Some (m, best)
                    | exception e ->
                        fail m e;
                        None)
                  mappings)
          in
          let survivors = Explore.select_survivors ~must_keep:(fun _ -> false) screened in
          counts.survivors <- counts.survivors + List.length survivors;
          let observe _ = counts.measurements <- counts.measurements + 1 in
          let plans =
            Trace.with_span tr ~parent "search" (fun _ ->
                List.concat_map
                  (fun (m, _) ->
                    match
                      Explore.search_mapping ~seeds:[] ~observe ~population
                        ~generations ~measure_top ~accel m
                    with
                    | plans, n ->
                        evals := !evals + n;
                        counts.search_evals <- counts.search_evals + n;
                        plans
                    | exception e ->
                        fail m e;
                        [])
                  survivors)
          in
          Some (Explore.assemble ~failures:(List.rev !failures) plans ~evaluations:!evals))

type tuned = { item : item; result : Explore.result option; wall : float }

let tune_unit ctx tr counts item =
  let result, wall =
    Common.time (fun () ->
        match
          if Trace.enabled tr then traced ctx tr counts item else untraced ctx item
        with
        | r -> r
        | exception _ -> None)
  in
  { item; result; wall }

let one_pass ctx tr counts probe () =
  List.map
    (fun item ->
      let t = tune_unit ctx tr counts item in
      Probe.tick probe;
      t)
    ctx.items

let measure accel (p : Explore.plan) =
  let c = p.Explore.candidate in
  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
    (Codegen.lower accel c.Explore.mapping c.Explore.schedule)

(* everything a tune decided, bit for bit; [None] for a failed tune *)
let result_key (r : Explore.result option) =
  Option.map
    (fun (r : Explore.result) ->
      let b = r.Explore.best in
      let c = b.Explore.candidate in
      Printf.sprintf "%s|%h|%h|%d|%d"
        (Plan_io.save c.Explore.mapping c.Explore.schedule)
        b.Explore.predicted b.Explore.measured r.Explore.evaluations
        (List.length r.Explore.history))
    r

let best_of t = Option.map (fun (r : Explore.result) -> r.Explore.best) t.result

(* a seeded sample of [k] items *)
let sample ~seed k xs = List.filteri (fun i _ -> i < k) (Gen.shuffle ~seed xs)

(* Compiler.verify runs the lowered kernel on random inputs against the
   reference interpreter; only small ops keep that affordable *)
let verify_sample ctx tuned =
  let small =
    List.filter
      (fun t -> t.result <> None && Amos_ir.Operator.flops t.item.op <= 2e6)
      tuned
  in
  List.for_all
    (fun t ->
      match best_of t with
      | None -> true
      | Some p ->
          let c = p.Explore.candidate in
          Compiler.verify ~rng:(Rng.create ctx.seed) t.item.accel c.Explore.mapping
            c.Explore.schedule)
    (sample ~seed:ctx.seed 3 small)

let layer_metrics ctx tr counts ~passes first =
  let n_passes = float passes in
  let per_pass x = float x /. n_passes in
  let spans = Trace.spans tr in
  let tunes = float (List.length first * passes) in
  let span_ms name = Common.ms (Trace.total_by_name spans name) /. tunes in
  let screen_s = Trace.total_by_name spans "screen" in
  let search_s = Trace.total_by_name spans "search" in
  let tune_s = Trace.total_by_name spans "tune" in
  let bests = List.filter_map (fun t -> Option.map (fun p -> (t.item, p)) (best_of t)) first in
  let kernels =
    List.map
      (fun (it, (p : Explore.plan)) ->
        let c = p.Explore.candidate in
        (it.accel, Codegen.lower it.accel c.Explore.mapping c.Explore.schedule))
      bests
  in
  let predict_s =
    Common.per_call (fun () ->
        List.iter
          (fun (a, k) ->
            ignore (Perf_model.predict_seconds a.Accelerator.config k))
          kernels)
    /. float (List.length kernels)
  in
  let measure_s =
    Common.per_call (fun () ->
        List.iter (fun (it, p) -> ignore (measure it.accel p)) bests)
    /. float (List.length bests)
  in
  (* Algorithm 1 alone, and the share of enumerated mappings the
     feasibility filter keeps, on a seeded sample of suite ops *)
  let probe = sample ~seed:ctx.seed 20 first in
  let matchings =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun intr -> Mapping_gen.generate_op t.item.op intr)
          t.item.accel.Accelerator.intrinsics)
      probe
  in
  let validate_s =
    Common.per_call (fun () -> List.iter (fun m -> ignore (Matching.validate m)) matchings)
    /. float (max 1 (List.length matchings))
  in
  let count filter =
    List.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc intr -> acc + Mapping_gen.count ~filter t.item.op intr)
          acc t.item.accel.Accelerator.intrinsics)
      0 probe
  in
  let measurements = per_pass counts.measurements in
  [
    Report.m "mapping_gen.ms" (span_ms "mapping_gen");
    Report.m "mapping_gen.mappings" (per_pass counts.mappings);
    Report.m "matching.validate_us" (Common.us validate_s);
    Report.m "matching.feasible_ratio" (float (count true) /. float (max 1 (count false)));
    Report.m "explore.screen_ms" (span_ms "screen");
    Report.m "explore.screen_evals" (per_pass counts.screen_evals);
    Report.m "explore.survivors" (per_pass counts.survivors);
    Report.m "explore.survivor_ratio"
      (float counts.survivors /. float (max 1 counts.mappings));
    Report.m "explore.search_ms" (span_ms "search");
    Report.m "explore.search_evals" (per_pass counts.search_evals);
    Report.m "explore.evals_per_s"
      (float (counts.screen_evals + counts.search_evals) /. (screen_s +. search_s));
    Report.m "perf_model.predict_us" (Common.us predict_s);
    Report.m "sim.measurements" measurements;
    Report.m "sim.measure_us" (Common.us measure_s);
    Report.m "sim.measure_share"
      (float counts.measurements *. measure_s /. tune_s);
  ]

let run ~seed ~seconds ~tr =
  let ctx, before = Common.repeated_setup ~reps:3 ~setup:(setup ~seed) ~teardown:ignore in
  let counts =
    { mappings = 0; screen_evals = 0; search_evals = 0; survivors = 0; measurements = 0 }
  in
  (* whole passes, at least three: every run measures the same 339 tunes
     per pass and has 1,000 samples for its tail *)
  let probe = Probe.create () in
  (* only the first pass keeps its results, so memory does not grow with
     the number of passes; later ones keep times and result keys *)
  let first = ref [] in
  let pass () =
    let tuned = one_pass ctx tr counts probe () in
    if !first = [] then first := tuned;
    (List.map (fun t -> Common.ms t.wall) tuned, List.map (fun t -> result_key t.result) tuned)
  in
  let passes, wall = Common.run_for ~seconds ~min_units:3 pass in
  (* two more set-ups once the timed phase is over (see Wl_compile.run) *)
  let setup_s =
    Common.median (before @ Common.setup_times ~reps:2 ~setup:(setup ~seed) ~teardown:ignore)
  in
  let timed_wall = wall -. Probe.spent probe in
  let first = !first in
  let keys = List.map snd passes in
  let failed =
    List.fold_left (fun acc ks -> acc + List.length (List.filter Option.is_none ks)) 0 keys
  in
  let tune_ms = List.concat_map fst passes in
  let tail, tail_notes = Common.tail_metric ~what:"tune" ~q10:(Option.get (Stats.tail_q10 1000)) tune_ms in
  let ratios =
    List.filter_map
      (fun t ->
        Option.map
          (fun (p : Explore.plan) ->
            p.Explore.measured /. Batch_compile.scalar_seconds t.item.accel t.item.op)
          (best_of t))
      first
  in
  let deterministic = List.for_all (fun ks -> ks = List.hd keys) keys in
  let resimulated =
    List.for_all
      (fun t ->
        match best_of t with
        | None -> true
        | Some p -> Int64.bits_of_float (measure t.item.accel p)
                    = Int64.bits_of_float p.Explore.measured)
      first
  in
  let composed_equal =
    (* the traced path must reproduce Explore.tune_op exactly *)
    (not (Trace.enabled tr))
    || List.for_all
         (fun t ->
           result_key t.result
           = result_key (match untraced ctx t.item with r -> r | exception _ -> None))
         (sample ~seed:ctx.seed 12 first)
  in
  let layers =
    if Trace.enabled tr then
      layer_metrics ctx tr counts ~passes:(List.length passes) first
    else []
  in
  {
    Common.setup_s;
    e2e =
      [
        Report.m "p50_ms" (Stats.p50 (Stats.sorted tune_ms));
        Report.m "tail_ms" tail;
        Report.m "rate_per_s" (float (List.length tune_ms) /. timed_wall);
        Report.m "plan_x" (Stats.geomean ratios);
      ];
    layers;
    attempted = List.length tune_ms;
    failed;
    checks =
      [
        ("tunes_identical_across_passes", deterministic);
        ("best_plan_resimulates_exactly", resimulated);
        ("verify_sample_matches_reference", verify_sample ctx first);
        ("traced_equals_untraced", composed_equal);
      ];
    notes =
      [
        ("passes", string_of_int (List.length passes));
        ("plan_geomean_us",
          Printf.sprintf "%.6f"
            (Common.us
               (Stats.geomean
                  (List.filter_map
                     (fun t -> Option.map (fun (p : Explore.plan) -> p.Explore.measured) (best_of t))
                     first))));
      ]
      @ tail_notes;
    unit_span = "tune";
    probe_s = Probe.median probe;
    rate_is_work = true;
  }
