(* The observation log: crash consistency under injected faults, the
   observer bridge from the tuner, and the [cache fsck] view of the
   log. *)

open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng
module Fs_io = Amos_service.Fs_io
module Clock = Amos_service.Clock
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Obs_log = Amos_learn.Obs_log

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let an_op () = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 ()

let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  d

(* bit-exact float comparison: round-trips are claimed to the bit, so
   the checks must be too *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

(* --- observation log -------------------------------------------------- *)

let some_features = [| 1.5; 0.25; 3.0 |]

let append_simple log ~fingerprint ~predicted ~measured =
  Obs_log.append log ~fingerprint ~accel:"toy" ~predicted ~measured
    ~features:some_features

let obs_log_tests =
  [
    Alcotest.test_case "create-stamps-and-roundtrips-bit-exact" `Quick
      (fun () ->
        let dir = temp_dir "amos-learn-log" in
        let clock = Clock.virtual_ ~now:123.5 () in
        let log = Obs_log.create ~clock ~dir () in
        Obs_log.append log ~fingerprint:"fp-a" ~accel:"v100"
          ~predicted:0x1.91eb851eb851fp-4 ~measured:2.5e-3
          ~features:[| 0x1.8p0; 3.25; 0. |];
        Clock.advance clock 2.25;
        Obs_log.append log ~fingerprint:"fp-b" ~accel:"avx512" ~predicted:1.0
          ~measured:2.0 ~features:[| 7.5 |];
        (match Obs_log.read ~dir () with
        | [ a; b ] ->
            Alcotest.(check string) "fp" "fp-a" a.Obs_log.fingerprint;
            Alcotest.(check string) "accel" "v100" a.Obs_log.accel;
            Alcotest.(check bool) "at" true (feq a.Obs_log.at 123.5);
            Alcotest.(check bool) "predicted bit-exact" true
              (feq a.Obs_log.predicted 0x1.91eb851eb851fp-4);
            Alcotest.(check bool) "measured bit-exact" true
              (feq a.Obs_log.measured 2.5e-3);
            Alcotest.(check bool) "features bit-exact" true
              (Array.for_all2 feq a.Obs_log.features [| 0x1.8p0; 3.25; 0. |]);
            Alcotest.(check bool) "clock advanced" true
              (feq b.Obs_log.at 125.75);
            Alcotest.(check string) "second fp" "fp-b" b.Obs_log.fingerprint
        | l ->
            Alcotest.failf "expected 2 records, read %d" (List.length l));
        let s = Obs_log.scan ~dir () in
        Alcotest.(check int) "scan records" 2 s.Obs_log.records;
        Alcotest.(check int) "scan skipped" 0 s.Obs_log.skipped;
        Alcotest.(check bool) "scan not torn" false s.Obs_log.torn);
    Alcotest.test_case "torn-append-is-skipped-then-healed" `Quick (fun () ->
        let dir = temp_dir "amos-learn-torn" in
        let clock = Clock.virtual_ ~now:10. () in
        let log = Obs_log.create ~clock ~dir () in
        append_simple log ~fingerprint:"fp-1" ~predicted:1.5 ~measured:2.0;
        (* the next writer dies 7 bytes into its O_APPEND write *)
        let faulty =
          Fs_io.faulty [ { Fs_io.op = Append; after = 0; mode = Torn 7 } ]
        in
        let flog = Obs_log.create ~fs:faulty ~clock ~dir () in
        (match
           append_simple flog ~fingerprint:"fp-2" ~predicted:1.0 ~measured:1.0
         with
        | () -> Alcotest.fail "torn append must crash"
        | exception Fs_io.Crashed _ -> ());
        (* a clean reader ignores the fragment *)
        Alcotest.(check int) "fragment ignored" 1
          (List.length (Obs_log.read ~dir ()));
        let s = Obs_log.scan ~dir () in
        Alcotest.(check bool) "scan sees the tear" true s.Obs_log.torn;
        Alcotest.(check int) "records intact" 1 s.Obs_log.records;
        (* heal terminates the fragment; it costs one skipped line *)
        Alcotest.(check bool) "heal repairs" true (Obs_log.heal ~dir ());
        Alcotest.(check bool) "heal idempotent" false (Obs_log.heal ~dir ());
        let s2 = Obs_log.scan ~dir () in
        Alcotest.(check bool) "tear gone" false s2.Obs_log.torn;
        Alcotest.(check int) "fragment now skipped" 1 s2.Obs_log.skipped;
        (* later appends land on a fresh line *)
        let log2 = Obs_log.create ~clock ~dir () in
        append_simple log2 ~fingerprint:"fp-3" ~predicted:3.0 ~measured:4.0;
        match Obs_log.read ~dir () with
        | [ a; b ] ->
            Alcotest.(check string) "old record survives" "fp-1"
              a.Obs_log.fingerprint;
            Alcotest.(check string) "new record lands" "fp-3"
              b.Obs_log.fingerprint
        | l -> Alcotest.failf "expected 2 records, read %d" (List.length l));
    Alcotest.test_case "corrupt-line-is-skipped-not-fatal" `Quick (fun () ->
        let dir = temp_dir "amos-learn-corrupt" in
        let log = Obs_log.create ~dir () in
        append_simple log ~fingerprint:"fp-1" ~predicted:1.0 ~measured:2.0;
        let fs = Fs_io.real () in
        Fs_io.append_line fs
          (Filename.concat dir Obs_log.file_name)
          "obs not-a-number nonsense x y z";
        append_simple log ~fingerprint:"fp-2" ~predicted:2.0 ~measured:3.0;
        (match Obs_log.read ~dir () with
        | [ a; b ] ->
            Alcotest.(check string) "first" "fp-1" a.Obs_log.fingerprint;
            Alcotest.(check string) "second" "fp-2" b.Obs_log.fingerprint
        | l -> Alcotest.failf "expected 2 records, read %d" (List.length l));
        let s = Obs_log.scan ~dir () in
        Alcotest.(check int) "skipped counted" 1 s.Obs_log.skipped;
        Alcotest.(check int) "records counted" 2 s.Obs_log.records);
    Alcotest.test_case "unknown-version-rejected-typed" `Quick (fun () ->
        let dir = temp_dir "amos-learn-version" in
        let fs = Fs_io.real () in
        Fs_io.write_file fs
          (Filename.concat dir Obs_log.file_name)
          "amos-obs 99\nobs fp toy 1 2 3 4\n";
        (match Obs_log.read ~dir () with
        | _ -> Alcotest.fail "future version must not be read"
        | exception Obs_log.Unsupported_obs_log { version; _ } ->
            Alcotest.(check string) "read reports the version" "99" version);
        match Obs_log.scan ~dir () with
        | _ -> Alcotest.fail "future version must not be scanned"
        | exception Obs_log.Unsupported_obs_log { version; _ } ->
            Alcotest.(check string) "scan reports the version" "99" version);
    Alcotest.test_case "observer-swallows-append-failures" `Quick (fun () ->
        let accel = toy_accel () in
        let captured = ref [] in
        ignore
          (Explore.tune_op ~population:4 ~generations:2
             ~observe:(fun ob -> captured := ob :: !captured)
             ~rng:(Rng.create 42) ~accel (an_op ()));
        let ob =
          match !captured with
          | ob :: _ -> ob
          | [] -> Alcotest.fail "tune produced no observation"
        in
        let dir = temp_dir "amos-learn-observer" in
        ignore (Obs_log.create ~dir ());
        (* ENOSPC on the first record append: the observer must treat
           the log as best-effort and keep the tune alive *)
        let faulty =
          Fs_io.faulty
            [ { Fs_io.op = Append; after = 0; mode = Fail "ENOSPC" } ]
        in
        let flog = Obs_log.create ~fs:faulty ~dir () in
        let observe =
          Obs_log.observer flog ~config:accel.Accelerator.config
            ~fingerprint:"fp" ~accel:"toy"
        in
        observe ob;
        Alcotest.(check int) "failed append dropped" 0
          (List.length (Obs_log.read ~dir ()));
        (* the fault is one-shot: the next observation lands *)
        observe ob;
        Alcotest.(check int) "later appends land" 1
          (List.length (Obs_log.read ~dir ())));
  ]

let small_tune accel op =
  match
    Explore.tune_op ~population:4 ~generations:2 ~rng:(Rng.create 42) ~accel op
  with
  | Some r -> r
  | None -> Alcotest.fail "toy operator must be mappable"

(* --- cache fsck sees the observation log ------------------------------ *)

let small_budget =
  { Fingerprint.population = 4; generations = 2; measure_top = 2; seed = 42 }

let fsck_tests =
  [
    Alcotest.test_case "fsck-counts-and-heals-the-obs-log" `Quick (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = temp_dir "amos-learn-fsck" in
        let cache = Plan_cache.create ~dir () in
        let value =
          let r = small_tune accel op in
          let c = r.Explore.best.Explore.candidate in
          Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
        in
        Plan_cache.store cache ~accel ~op ~budget:small_budget value;
        (* the log is written through Obs_log under its own name; fsck
           carries a duplicate of that name — this test pins the two *)
        let log = Obs_log.create ~dir () in
        append_simple log ~fingerprint:"fp-1" ~predicted:1.0 ~measured:2.0;
        append_simple log ~fingerprint:"fp-2" ~predicted:2.0 ~measured:3.0;
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "obs records" 2 r.Plan_cache.obs_records;
        Alcotest.(check int) "obs skipped" 0 r.Plan_cache.obs_skipped;
        Alcotest.(check bool) "no tear" false r.Plan_cache.obs_torn_repaired;
        Alcotest.(check bool) "cache clean" true (Plan_cache.fsck_clean r);
        (* garbage line plus a torn trailing fragment, written raw — the
           crash shapes fsck must absorb without quarantining the cache *)
        let oc =
          open_out_gen [ Open_append ] 0o644
            (Filename.concat dir Obs_log.file_name)
        in
        output_string oc "garbage line\nobs fp-3 toy 1.0";
        close_out oc;
        let r2 = Plan_cache.fsck ~dir () in
        Alcotest.(check bool) "tear repaired" true
          r2.Plan_cache.obs_torn_repaired;
        Alcotest.(check int) "records preserved" 2 r2.Plan_cache.obs_records;
        Alcotest.(check int) "garbage skipped" 1 r2.Plan_cache.obs_skipped;
        let r3 = Plan_cache.fsck ~dir () in
        Alcotest.(check bool) "repair sticks" false
          r3.Plan_cache.obs_torn_repaired;
        Alcotest.(check int) "healed fragment now skipped" 2
          r3.Plan_cache.obs_skipped;
        Alcotest.(check bool) "obs damage never dirties the cache" true
          (Plan_cache.fsck_clean r3);
        (* and Obs_log agrees with fsck's view after the repair *)
        let s = Obs_log.scan ~dir () in
        Alcotest.(check int) "obs_log records agree" 2 s.Obs_log.records;
        Alcotest.(check int) "obs_log skipped agree" 2 s.Obs_log.skipped;
        Alcotest.(check bool) "obs_log sees no tear" false s.Obs_log.torn;
        (* appends after repair land on a fresh line *)
        let log2 = Obs_log.create ~dir () in
        append_simple log2 ~fingerprint:"fp-4" ~predicted:3.0 ~measured:4.0;
        Alcotest.(check int) "append after repair lands" 3
          (List.length (Obs_log.read ~dir ())));
  ]

let suites =
  [
    ("learn.obs_log", obs_log_tests); ("learn.fsck", fsck_tests);
  ]
