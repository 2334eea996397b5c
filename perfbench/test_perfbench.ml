(* Tests of the benchmark's own accounting: the tail rule, span self
   time, seed determinism of the generated inputs, and open-loop latency
   measured from the due time. *)

let check_tail () =
  let label n = Option.map Stats.label (Stats.tail_q10 n) in
  let opt = Alcotest.(option string) in
  Alcotest.check opt "19 samples support no tail" None (label 19);
  Alcotest.check opt "20 samples: p50 has 10 beyond" (Some "p50") (label 20);
  Alcotest.check opt "99 samples: p75" (Some "p75") (label 99);
  Alcotest.check opt "100 samples: p90" (Some "p90") (label 100);
  Alcotest.check opt "999 samples: p99 has only 9 beyond" (Some "p95") (label 999);
  Alcotest.check opt "1000 samples: p99" (Some "p99") (label 1000);
  Alcotest.check opt "10000 samples: p99.9" (Some "p99.9") (label 10_000);
  let a = Stats.sorted (List.init 1000 (fun i -> float (1000 - i))) in
  Alcotest.(check (float 0.)) "nearest-rank p99 of 1..1000" 990. (Stats.percentile a 990);
  Alcotest.(check (float 0.)) "p50 of 1..1000" 500. (Stats.p50 a);
  let v = Stats.percentile a 990 in
  Alcotest.(check int) "ten samples beyond p99 of 1000" 10
    (List.length (List.filter (fun x -> x > v) (Array.to_list a)))

let span ~id ?(parent = -1) start stop =
  { Trace.id; name = Printf.sprintf "s%d" id; start; stop; parent; req = -1 }

let check_self_time () =
  (* children overlap each other and the last one outlives its parent *)
  let spans =
    [
      span ~id:0 0. 10.;
      span ~id:1 ~parent:0 1. 4.;
      span ~id:2 ~parent:0 3. 6.;
      span ~id:3 ~parent:0 8. 12.;
      span ~id:4 ~parent:2 3.5 4.5;
    ]
  in
  let self id =
    List.find_map
      (fun ((s : Trace.span), t) -> if s.Trace.id = id then Some t else None)
      (Trace.self_times spans)
    |> Option.get
  in
  let eps = Alcotest.float 1e-9 in
  Alcotest.check eps "parent: 10 - |[1,6] u [8,10]|" 3. (self 0);
  Alcotest.check eps "leaf child" 3. (self 1);
  Alcotest.check eps "child minus its own child" 2. (self 2);
  Alcotest.check eps "child past the parent's end keeps its duration" 4. (self 3);
  Alcotest.check eps "disjoint cover" 2. (Trace.covered ~lo:0. ~hi:10. [ (1., 2.); (5., 6.) ]);
  Alcotest.check eps "nested cover counted once" 4.
    (Trace.covered ~lo:0. ~hi:10. [ (1., 5.); (2., 3.); (2., 4.) ])

let check_seed_determinism () =
  Alcotest.(check bool) "tune order" true (Gen.tune_order ~seed:7 = Gen.tune_order ~seed:7);
  Alcotest.(check bool) "tune order depends on the seed" false
    (Gen.tune_order ~seed:7 = Gen.tune_order ~seed:8);
  Alcotest.(check int) "every suite op on three accelerators" 339
    (List.length (Gen.tune_order ~seed:7));
  let sched seed =
    Gen.daemon_schedule ~seed ~rate:400. ~seconds:2. ~working_set:256 ~warm_senders:2
      ~cold_senders:3
  in
  Alcotest.(check bool) "request schedule" true (sched 11 = sched 11);
  Alcotest.(check bool) "schedule depends on the seed" false (sched 11 = sched 12);
  let s = sched 11 in
  let arrivals = List.sort_uniq Float.compare (List.map (fun r -> r.Gen.due) s.Gen.requests) in
  Alcotest.(check int) "offered arrivals are exactly rate x seconds" 800 (List.length arrivals);
  Alcotest.(check bool) "due times sorted and inside the run" true
    (let dues = List.map (fun r -> r.Gen.due) s.Gen.requests in
     List.sort Float.compare dues = dues && List.for_all (fun d -> d >= 0. && d < 2.) dues);
  Alcotest.(check bool) "tunes of fresh ops only on cold senders" true
    (List.for_all
       (fun r ->
         match r.Gen.kind with
         | Gen.Cold _ | Gen.Cold_pair _ -> r.Gen.sender >= 2 && r.Gen.sender < 5
         | Gen.Warm _ | Gen.Miss _ -> r.Gen.sender < 2)
       s.Gen.requests);
  Alcotest.(check int) "distinct ops" (List.length s.Gen.working_set + List.length s.Gen.fresh)
    (List.length (List.sort_uniq compare (s.Gen.working_set @ s.Gen.fresh)));
  Alcotest.(check bool) "fleet candidates" true
    (Gen.fleet_candidates ~seed:5 50 = Gen.fleet_candidates ~seed:5 50)

let check_due_time_latency () =
  (* a fake clock: each request takes 5 ms, arrivals are 1 ms apart, so
     the sender falls behind and later requests wait *)
  let clock = ref 100. in
  let outcomes =
    Loadgen.run
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~base:100.
      ~send:(fun () -> clock := !clock +. 0.005)
      [ (0., ()); (0.001, ()); (0.002, ()); (0.050, ()) ]
  in
  let eps = Alcotest.float 1e-9 in
  let lat = List.map Loadgen.latency outcomes in
  let late = List.map Loadgen.lateness outcomes in
  Alcotest.check (Alcotest.list eps) "latency from the due time" [ 0.005; 0.009; 0.013; 0.005 ] lat;
  Alcotest.check (Alcotest.list eps) "generator lateness" [ 0.; 0.004; 0.008; 0. ] late;
  Alcotest.check eps "an idle sender waits for the due time" 100.050
    (List.nth outcomes 3).Loadgen.sent

let () =
  Alcotest.run "perfbench"
    [
      ( "accounting",
        [
          Alcotest.test_case "tail percentile rule" `Quick check_tail;
          Alcotest.test_case "self time with overlapping children" `Quick check_self_time;
          Alcotest.test_case "seed gives identical inputs" `Quick check_seed_determinism;
          Alcotest.test_case "open-loop latency from due time" `Quick check_due_time_latency;
        ] );
    ]
