open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng

let metric_tests =
  [
    Alcotest.test_case "pairwise-perfect" `Quick (fun () ->
        let samples = [ (1., 10.); (2., 20.); (3., 30.) ] in
        Alcotest.(check (float 1e-9)) "1.0" 1.0 (Explore.pairwise_accuracy samples));
    Alcotest.test_case "pairwise-inverted" `Quick (fun () ->
        let samples = [ (3., 10.); (2., 20.); (1., 30.) ] in
        Alcotest.(check (float 1e-9)) "0.0" 0.0 (Explore.pairwise_accuracy samples));
    Alcotest.test_case "pairwise-single" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "1.0" 1.0
          (Explore.pairwise_accuracy [ (1., 1.) ]));
    Alcotest.test_case "topk-recall-perfect" `Quick (fun () ->
        let samples = List.init 10 (fun i -> (float_of_int i, float_of_int i)) in
        Alcotest.(check (float 1e-9)) "1.0" 1.0
          (Explore.topk_recall ~top_rate:0.4 samples));
    Alcotest.test_case "topk-recall-anti" `Quick (fun () ->
        let samples = List.init 10 (fun i -> (float_of_int (9 - i), float_of_int i)) in
        Alcotest.(check (float 1e-9)) "0.0" 0.0
          (Explore.topk_recall ~top_rate:0.3 samples));
  ]

let tune_tests =
  [
    Alcotest.test_case "tune-improves-over-default" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Amos_workloads.Resnet.config (Amos_workloads.Resnet.by_label "C5") in
        let rng = Rng.create 11 in
        let mappings = Compiler.mappings accel op in
        let default_best =
          List.fold_left
            (fun acc m ->
              let k = Codegen.lower accel m (Schedule.default m) in
              Float.min acc
                (Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k))
            infinity mappings
        in
        let result = Explore.tune ~rng ~accel ~mappings () in
        Alcotest.(check bool) "tuned <= best default" true
          (result.Explore.best.Explore.measured <= default_best));
    Alcotest.test_case "tune-deterministic-under-seed" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:512 ~n:512 ~k:512 () in
        let run seed =
          let rng = Rng.create seed in
          (Compiler.tune ~rng accel op |> Compiler.seconds)
        in
        Alcotest.(check (float 1e-12)) "same result" (run 7) (run 7));
    Alcotest.test_case "tune-empty-mappings-rejected" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let rng = Rng.create 1 in
        match Explore.tune ~rng ~accel ~mappings:[] () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "split-search-keeps-the-evaluation-budget" `Quick
      (fun () ->
        (* one mapping and more jobs than candidates: the population
           split may not give shards more candidates than the budget *)
        let accel = Accelerator.v100 () in
        let m = List.hd (Compiler.mappings accel (Ops.gemm ~m:32 ~n:32 ~k:32 ())) in
        let evals ~population jobs =
          (Explore.tune ~jobs ~population ~generations:2 ~rng:(Rng.create 3)
             ~accel ~mappings:[ m ] ())
            .Explore.evaluations
        in
        List.iter
          (fun population ->
            let base = evals ~population 1 in
            List.iter
              (fun jobs ->
                Alcotest.(check int)
                  (Printf.sprintf "population %d, jobs %d" population jobs)
                  base (evals ~population jobs))
              [ 4; 8 ])
          [ 2; 3 ]);
    Alcotest.test_case "progress-through-the-real-driver" `Quick (fun () ->
        let accel = Accelerator.v100 () in
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let mappings = Compiler.mappings accel op in
        Alcotest.(check bool) "more mappings than jobs" true
          (List.length mappings > 2);
        let generations = 2 in
        let survivors =
          Explore.select_survivors
            (List.map
               (fun m -> (m, fst (Explore.screen_mapping ~accel m)))
               mappings)
        in
        let final jobs =
          let seen = ref [] in
          ignore
            (Explore.tune ~jobs ~population:4 ~generations
               ~progress:(fun p -> seen := p :: !seen)
               ~rng:(Rng.create 5) ~accel ~mappings ());
          let seen = List.rev !seen in
          List.iteri
            (fun i p ->
              Alcotest.(check int) "one generation per tick" (i + 1)
                p.Explore.pr_generation)
            seen;
          ignore
            (List.fold_left
               (fun prev p ->
                 Alcotest.(check bool) "best predicted never increases" true
                   (p.Explore.pr_best_predicted <= prev);
                 p.Explore.pr_best_predicted)
               infinity seen);
          (List.nth seen (List.length seen - 1)).Explore.pr_generation
        in
        let f1 = final 1 in
        Alcotest.(check int) "generations x searched survivors"
          (generations * List.length survivors) f1;
        Alcotest.(check int) "same at jobs 2" f1 (final 2));
    Alcotest.test_case "mapping-seed-structural-and-memo-stable" `Quick
      (fun () ->
        let accel =
          { (Accelerator.v100 ()) with
            Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }
        in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let a = Explore.mapping_space accel op
        and b = Explore.mapping_space accel op in
        Alcotest.(check bool) "nonempty space" true (a <> []);
        List.iter2
          (fun m m' ->
            (* second call hits the memo; it must equal the first *)
            Alcotest.(check int) "memo stable" (Explore.mapping_seed m)
              (Explore.mapping_seed m);
            (* physically distinct but structurally equal mapping: the
               seed is a hash of structure, not of Iter.t identity *)
            Alcotest.(check int) "structural seed" (Explore.mapping_seed m)
              (Explore.mapping_seed m');
            Alcotest.(check bool) "structural key" true
              (Explore.mapping_key m = Explore.mapping_key m'))
          a b);
    Alcotest.test_case "observe-fires-per-measurement-and-is-inert" `Quick
      (fun () ->
        (* [observe] is a side channel: one call per simulator
           measurement, and the result is bit-identical to the same
           tune without it, whatever the domain count *)
        let accel =
          { (Accelerator.v100 ()) with
            Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }
        in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let tune ?observe jobs =
          match
            Explore.tune_op ~jobs ~population:4 ~generations:2 ?observe
              ~rng:(Rng.create 42) ~accel op
          with
          | Some r -> r
          | None -> Alcotest.fail "toy operator must be mappable"
        in
        let bits f = Int64.bits_of_float f in
        let base = tune 1 in
        List.iter
          (fun jobs ->
            let count = ref 0 in
            let r = tune ~observe:(fun _ -> incr count) jobs in
            let label what = Printf.sprintf "jobs %d: %s" jobs what in
            Alcotest.(check int)
              (label "one observation per simulator measurement")
              (List.length r.Explore.history)
              !count;
            Alcotest.(check int64) (label "best predicted")
              (bits base.Explore.best.Explore.predicted)
              (bits r.Explore.best.Explore.predicted);
            Alcotest.(check int64) (label "best measured")
              (bits base.Explore.best.Explore.measured)
              (bits r.Explore.best.Explore.measured);
            Alcotest.(check int) (label "evaluations")
              base.Explore.evaluations r.Explore.evaluations;
            Alcotest.(check bool) (label "history") true
              (List.equal
                 (fun (p, m) (p', m') ->
                   bits p = bits p' && bits m = bits m')
                 base.Explore.history r.Explore.history))
          [ 1; 2 ]);
    Alcotest.test_case "sample-pairs-finite" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Amos_workloads.Resnet.config (Amos_workloads.Resnet.by_label "C8") in
        let rng = Rng.create 3 in
        let mappings = Compiler.mappings accel op in
        let samples = Explore.sample ~n:20 ~rng ~accel ~mappings in
        Alcotest.(check int) "20 samples" 20 (List.length samples);
        Alcotest.(check bool) "model correlates (acc > 0.5)" true
          (Explore.pairwise_accuracy
             (List.filter (fun (p, m) -> p < infinity && m < infinity) samples)
          > 0.5));
  ]

let perf_model_tests =
  [
    Alcotest.test_case "levels-monotone" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:256 ~n:256 ~k:256 () in
        match Compiler.mappings accel op with
        | m :: _ ->
            let k = Codegen.lower accel m (Schedule.default m) in
            let l = Perf_model.predict accel.Accelerator.config k in
            Alcotest.(check bool) "L3 >= L2 >= L1 >= L0" true
              (l.Perf_model.l3 >= l.Perf_model.l2
              && l.Perf_model.l2 >= l.Perf_model.l1
              && l.Perf_model.l1 >= l.Perf_model.l0)
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "model-infinity-on-overflow" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:256 ~n:256 ~k:256 () in
        match Compiler.mappings accel op with
        | m :: _ ->
            let k = Codegen.lower accel m (Schedule.default m) in
            let cfg =
              { accel.Accelerator.config with
                Spatial_sim.Machine_config.shared_capacity_bytes = 1 }
            in
            Alcotest.(check bool) "infinite" true
              (Perf_model.predict_seconds cfg k = infinity)
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "bigger-problem-bigger-prediction" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let t m_sz =
          let op = Ops.gemm ~m:m_sz ~n:512 ~k:512 () in
          match Compiler.mappings accel op with
          | m :: _ ->
              let k = Codegen.lower accel m (Schedule.default m) in
              Perf_model.predict_seconds accel.Accelerator.config k
          | [] -> Alcotest.fail "no mapping"
        in
        Alcotest.(check bool) "monotone" true (t 2048 > t 256));
  ]

let suites =
  [
    ("explore.metrics", metric_tests);
    ("explore.tune", tune_tests);
    ("explore.perf_model", perf_model_tests);
  ]

let trajectory_tests =
  [
    Alcotest.test_case "trajectory-monotone" `Quick (fun () ->
        let history = [ (0., 2e-3); (0., 1e-3); (0., 5e-3); (0., 5e-4) ] in
        let curve = Explore.trajectory ~flops:1e9 history in
        Alcotest.(check int) "4 steps" 4 (List.length curve);
        let rec monotone = function
          | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "non-decreasing" true (monotone curve);
        Alcotest.(check (float 1e-3)) "final gflops" 2000.0
          (snd (List.nth curve 3)));
    Alcotest.test_case "trajectory-empty" `Quick (fun () ->
        Alcotest.(check int) "empty" 0
          (List.length (Explore.trajectory ~flops:1e9 [])));
  ]

let suites = suites @ [ ("explore.trajectory", trajectory_tests) ]
