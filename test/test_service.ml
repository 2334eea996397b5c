open Amos
module Nd = Amos_tensor.Nd
module Rng = Amos_tensor.Rng
module Ops = Amos_workloads.Ops
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Par_tune = Amos_service.Par_tune
module Batch_compile = Amos_service.Batch_compile

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let small_budget =
  {
    Fingerprint.population = 4;
    generations = 2;
    measure_top = 2;
    seed = 42;
  }

let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  d

(* --- fingerprints --------------------------------------------------- *)

let fingerprint_tests =
  [
    Alcotest.test_case "name-independent" `Quick (fun () ->
        let accel = toy_accel () in
        let a = Ops.conv2d ~name:"alpha" ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.conv2d ~name:"beta" ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        Alcotest.(check string) "same structure, same key"
          (Fingerprint.key ~accel ~op:a ~budget:small_budget)
          (Fingerprint.key ~accel ~op:b ~budget:small_budget));
    Alcotest.test_case "shape-sensitive" `Quick (fun () ->
        let accel = toy_accel () in
        let a = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.conv2d ~n:2 ~c:2 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        Alcotest.(check bool) "different shapes differ" false
          (Fingerprint.key ~accel ~op:a ~budget:small_budget
          = Fingerprint.key ~accel ~op:b ~budget:small_budget));
    Alcotest.test_case "budget-and-seed-sensitive" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let k b = Fingerprint.key ~accel ~op ~budget:b in
        Alcotest.(check bool) "seed changes key" false
          (k small_budget = k { small_budget with Fingerprint.seed = 43 });
        Alcotest.(check bool) "population changes key" false
          (k small_budget = k { small_budget with Fingerprint.population = 8 }));
    Alcotest.test_case "accelerator-sensitive" `Quick (fun () ->
        let op = Ops.gemm ~m:16 ~n:16 ~k:16 () in
        Alcotest.(check bool) "toy vs a100 differ" false
          (Fingerprint.key ~accel:(toy_accel ()) ~op ~budget:small_budget
          = Fingerprint.key ~accel:(Accelerator.a100 ()) ~op
              ~budget:small_budget));
  ]

(* --- plan cache ------------------------------------------------------ *)

let tune_value accel op =
  let rng = Rng.create small_budget.Fingerprint.seed in
  match
    Explore.tune_op ~population:4 ~generations:2 ~rng ~accel op
  with
  | Some result ->
      let c = result.Explore.best.Explore.candidate in
      Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
  | None -> Plan_cache.Scalar

let cache_tests =
  [
    Alcotest.test_case "memory-roundtrip" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let cache = Plan_cache.create () in
        Alcotest.(check bool) "initially absent" true
          (Plan_cache.lookup cache ~accel ~op ~budget:small_budget = None);
        Plan_cache.store cache ~accel ~op ~budget:small_budget
          (tune_value accel op);
        (match Plan_cache.lookup cache ~accel ~op ~budget:small_budget with
        | Some (Plan_cache.Spatial (m, sched)) ->
            Alcotest.(check bool) "validates" true
              (Schedule.validate m sched)
        | Some Plan_cache.Scalar -> Alcotest.fail "expected spatial"
        | None -> Alcotest.fail "expected hit");
        let s = Plan_cache.stats cache in
        Alcotest.(check int) "one hit" 1 s.Plan_cache.hits;
        Alcotest.(check int) "one miss" 1 s.Plan_cache.misses);
    Alcotest.test_case "disk-persistence-across-reopen" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let dir = temp_dir "amos-cache" in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op ~budget:small_budget
          (tune_value accel op);
        (* a second cache value over the same directory must see it *)
        let reopened = Plan_cache.create ~dir () in
        Alcotest.(check int) "one live entry" 1 (Plan_cache.disk_size reopened);
        (match Plan_cache.lookup reopened ~accel ~op ~budget:small_budget with
        | Some (Plan_cache.Spatial _) -> ()
        | _ -> Alcotest.fail "expected persistent hit");
        Plan_cache.clear reopened;
        Alcotest.(check int) "cleared" 0 (Plan_cache.disk_size reopened);
        Alcotest.(check bool) "miss after clear" true
          (Plan_cache.lookup reopened ~accel ~op ~budget:small_budget = None));
    Alcotest.test_case "lru-capacity-bounded" `Quick (fun () ->
        let accel = toy_accel () in
        let cache = Plan_cache.create ~mem_capacity:2 () in
        List.iter
          (fun k ->
            let op = Ops.gemm ~m:4 ~n:4 ~k () in
            Plan_cache.store cache ~accel ~op ~budget:small_budget
              Plan_cache.Scalar)
          [ 2; 4; 6 ];
        Alcotest.(check int) "memory stays at capacity" 2
          (Plan_cache.mem_size cache);
        Alcotest.(check int) "one eviction" 1
          (Plan_cache.stats cache).Plan_cache.lru_evictions);
    Alcotest.test_case "wrong-operator-never-served" `Quick (fun () ->
        (* two ops whose fingerprints differ: the cache must not cross
           the streams even though both entries live side by side *)
        let accel = toy_accel () in
        let a = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let cache = Plan_cache.create () in
        Plan_cache.store cache ~accel ~op:a ~budget:small_budget
          (tune_value accel a);
        (match Plan_cache.lookup cache ~accel ~op:b ~budget:small_budget with
        | None -> ()
        | Some _ -> Alcotest.fail "gemm must miss on conv's entry"));
  ]

(* --- parallel tuning -------------------------------------------------- *)

let par_tune_tests =
  [
    Alcotest.test_case "jobs-1-and-4-identical" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let run jobs =
          match
            Par_tune.tune_op ~jobs ~population:4 ~generations:2
              ~rng:(Rng.create 7) ~accel op
          with
          | Some r -> r
          | None -> Alcotest.fail "expected a result"
        in
        let r1 = run 1 and r4 = run 4 in
        let b1 = r1.Explore.best and b4 = r4.Explore.best in
        Alcotest.(check string) "same mapping"
          (Mapping.describe b1.Explore.candidate.Explore.mapping)
          (Mapping.describe b4.Explore.candidate.Explore.mapping);
        Alcotest.(check string) "same schedule"
          (Schedule.describe b1.Explore.candidate.Explore.mapping
             b1.Explore.candidate.Explore.schedule)
          (Schedule.describe b4.Explore.candidate.Explore.mapping
             b4.Explore.candidate.Explore.schedule);
        Alcotest.(check (float 0.)) "same measured time" b1.Explore.measured
          b4.Explore.measured;
        Alcotest.(check int) "same evaluation count" r1.Explore.evaluations
          r4.Explore.evaluations;
        Alcotest.(check int) "same history length"
          (List.length r1.Explore.history)
          (List.length r4.Explore.history));
    Alcotest.test_case "jobs-1-matches-sequential-explore" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let seq =
          Option.get
            (Explore.tune_op ~population:4 ~generations:2 ~rng:(Rng.create 7)
               ~accel op)
        in
        let par =
          Option.get
            (Par_tune.tune_op ~jobs:1 ~population:4 ~generations:2
               ~rng:(Rng.create 7) ~accel op)
        in
        Alcotest.(check (float 0.)) "same best" seq.Explore.best.Explore.measured
          par.Explore.best.Explore.measured;
        Alcotest.(check int) "same evals" seq.Explore.evaluations
          par.Explore.evaluations);
    Alcotest.test_case "population-split-deterministic" `Quick (fun () ->
        (* more jobs than mappings forces the population-split fan-out;
           the pinned contract is that for a fixed (seed, jobs) pair the
           sharded search is run-to-run deterministic and still yields a
           validating plan *)
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let mappings = Compiler.mappings accel op in
        Alcotest.(check bool) "op has mappings" true (mappings <> []);
        let jobs = List.length mappings + 2 in
        let run () =
          Explore.tune ~jobs ~population:4 ~generations:2 ~measure_top:2
            ~rng:(Rng.create 7) ~accel ~mappings ()
        in
        let r1 = run () and r2 = run () in
        let b1 = r1.Explore.best and b2 = r2.Explore.best in
        Alcotest.(check string) "same mapping"
          (Mapping.describe b1.Explore.candidate.Explore.mapping)
          (Mapping.describe b2.Explore.candidate.Explore.mapping);
        Alcotest.(check string) "same schedule"
          (Schedule.describe b1.Explore.candidate.Explore.mapping
             b1.Explore.candidate.Explore.schedule)
          (Schedule.describe b2.Explore.candidate.Explore.mapping
             b2.Explore.candidate.Explore.schedule);
        Alcotest.(check (float 0.)) "same measured time" b1.Explore.measured
          b2.Explore.measured;
        Alcotest.(check int) "same evaluation count" r1.Explore.evaluations
          r2.Explore.evaluations;
        Alcotest.(check bool) "split-path winner validates" true
          (Schedule.validate b1.Explore.candidate.Explore.mapping
             b1.Explore.candidate.Explore.schedule));
  ]

(* --- batch compile ---------------------------------------------------- *)

let nd_bit_identical a b =
  Nd.shape a = Nd.shape b
  && begin
       let ok = ref true in
       for i = 0 to Nd.num_elems a - 1 do
         if not (Float.equal (Nd.get_flat a i) (Nd.get_flat b i)) then
           ok := false
       done;
       !ok
     end

let batch_tests =
  [
    Alcotest.test_case "warm-recompile-zero-evaluations" `Quick (fun () ->
        let accel = toy_accel () in
        let p = Pipeline.mini_cnn ~channels:2 () in
        let cache = Plan_cache.create ~dir:(temp_dir "amos-batch") () in
        let cold =
          Batch_compile.compile ~jobs:2 ~budget:small_budget ~cache accel p
        in
        Alcotest.(check bool) "cold run tunes" true
          (cold.Batch_compile.report.Batch_compile.evaluations > 0);
        let warm =
          Batch_compile.compile ~jobs:2 ~budget:small_budget ~cache accel p
        in
        Alcotest.(check int) "warm run: zero tuner evaluations" 0
          warm.Batch_compile.report.Batch_compile.evaluations;
        Alcotest.(check int) "warm run: zero misses" 0
          warm.Batch_compile.report.Batch_compile.cache_misses;
        (* bit-identical simulator results *)
        let rng = Rng.create 99 in
        let input = Nd.random rng (Pipeline.input_shape p) in
        let weights = Pipeline.random_weights rng p in
        let out_cold = Batch_compile.run cold ~input ~weights in
        let out_warm = Batch_compile.run warm ~input ~weights in
        Alcotest.(check bool) "bit-identical outputs" true
          (nd_bit_identical out_cold out_warm);
        (* and still correct vs the reference *)
        let expected = Pipeline.run_reference p ~input ~weights in
        Alcotest.(check bool) "matches reference" true
          (Nd.approx_equal ~tol:1e-3 expected out_cold));
    Alcotest.test_case "within-run-dedup" `Quick (fun () ->
        (* the same conv repeated: one tuning, repeats served for free *)
        let accel = toy_accel () in
        let c = 2 in
        let conv name =
          Pipeline.Op (Ops.conv2d ~name ~n:1 ~c ~k:c ~p:4 ~q:4 ~r:1 ~s:1 ())
        in
        let p =
          Pipeline.create ~name:"rep" [ conv "a"; conv "b"; conv "c" ]
        in
        let cache = Plan_cache.create () in
        let t =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache accel p
        in
        let r = t.Batch_compile.report in
        Alcotest.(check int) "three stages" 3 r.Batch_compile.tensor_stages;
        Alcotest.(check int) "one unique" 1 r.Batch_compile.unique_stages;
        Alcotest.(check int) "one miss" 1 r.Batch_compile.cache_misses;
        Alcotest.(check int) "two repeats" 2 r.Batch_compile.cache_hits);
    Alcotest.test_case "corrupt-entry-evicted-and-retuned" `Quick (fun () ->
        let accel = toy_accel () in
        let p = Pipeline.mini_cnn ~channels:2 () in
        let dir = temp_dir "amos-corrupt" in
        let cache = Plan_cache.create ~dir () in
        let _cold =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache accel p
        in
        (* vandalize every on-disk entry: the header still looks right,
           so detection has to come from Plan_io re-validation *)
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".plan" then
              let fp = Filename.chop_suffix f ".plan" in
              Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
                  Out_channel.output_string oc
                    (Printf.sprintf
                       "amos-plan-cache 1\nfingerprint %s\nkind \
                        spatial\n---\ngarbage\n"
                       fp)))
          (Sys.readdir dir);
        (* a fresh cache over the same directory must detect the damage,
           evict, and re-tune instead of crashing or serving garbage *)
        let cache2 = Plan_cache.create ~dir () in
        let again =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache:cache2
            accel p
        in
        Alcotest.(check bool) "re-tuned" true
          (again.Batch_compile.report.Batch_compile.evaluations > 0);
        Alcotest.(check bool) "corruption recorded" true
          ((Plan_cache.stats cache2).Plan_cache.corrupt_evictions > 0);
        (* the rewritten entries must now be healthy *)
        let warm =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache:cache2
            accel p
        in
        Alcotest.(check int) "healthy after re-tune" 0
          warm.Batch_compile.report.Batch_compile.evaluations);
  ]

let suites =
  [
    ("service.fingerprint", fingerprint_tests);
    ("service.cache", cache_tests);
    ("service.par_tune", par_tune_tests);
    ("service.batch", batch_tests);
  ]
