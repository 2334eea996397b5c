module Rng = Amos_tensor.Rng

type candidate = {
  mapping : Mapping.t;
  schedule : Schedule.t;
}

type plan = {
  candidate : candidate;
  predicted : float;
  measured : float;
}

type result = {
  best : plan;
  evaluations : int;
  history : (float * float) list;
  failures : (string * string) list;
}

(* One measured data point, reported through [?observe]: the kernel-free
   summary the model screened with, the analytic prediction and the
   simulator measurement.  The callback is a side channel: it sees every
   simulator measurement in exploration order and cannot perturb the
   search. *)
type observation = {
  ob_summary : Spatial_sim.Kernel.summary;
  ob_predicted : float;
  ob_measured : float;
}

(* Cooperative abort: an [?abort] poll returning [true] raises this at
   the next generation boundary of the genetic search.  The exception
   deliberately escapes [tune]'s per-mapping failure containment — an
   aborted exploration has no result, partial or otherwise. *)
exception Aborted

(* One per-generation snapshot of an in-flight exploration, reported
   through [?progress].  Latencies use [infinity] for "nothing yet":
   the wire layer renders unknowns as absent fields.  Like [?observe],
   the callback is a side channel — it cannot perturb RNG streams,
   rankings or results. *)
type progress = {
  pr_generation : int;
  pr_best_predicted : float;
  pr_best_measured : float;
  pr_evaluations : int;
}

let predict accel c =
  let k = Codegen.lower accel c.mapping c.schedule in
  Perf_model.predict_seconds accel.Accelerator.config k

let measure accel c =
  let k = Codegen.lower accel c.mapping c.schedule in
  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k

(* A stable per-mapping seed: the schedule search for a given mapping
   explores the same schedule sequence no matter which compiler invokes
   it or what other mappings surround it.  Exploring a superset of
   mappings therefore can only help -- the property the paper's
   comparison against fixed-mapping baselines rests on.  It is also what
   makes the search embarrassingly parallel: every per-mapping work unit
   derives its RNG stream from the mapping itself, so any partition of
   the mappings over workers produces identical results. *)
let mapping_seed (m : Mapping.t) =
  (* the description hash is cached on the mapping itself: a genetic
     search calls this once but the sharded search re-derives shard
     streams from it repeatedly, and [Mapping.describe] rebuilds the
     description string on every call.  [Hashtbl.hash] is non-negative,
     so -1 is a safe "not yet computed" sentinel; racing domains can
     only write the same deterministic value. *)
  if m.Mapping.seed_memo >= 0 then m.Mapping.seed_memo
  else begin
    let h =
      Hashtbl.hash
        ( Mapping.describe m,
          m.Mapping.matching.Matching.intr.Intrinsic.name,
          0x5eed )
    in
    m.Mapping.seed_memo <- h;
    h
  end

(* Structural identity of a mapping: iteration ids are globally unique, so
   two mappings built at different times can only be compared through
   their description plus intrinsic — the same identity [mapping_seed]
   hashes, kept exact here. *)
let mapping_key (m : Mapping.t) =
  (Mapping.describe m, m.Mapping.matching.Matching.intr.Intrinsic.name)

(* Fold an [initial_population] of seed plans into a mapping space:
   returns the extended mapping list (seed mappings join the space when
   not already present), the per-mapping seed schedules, and the is-seeded
   predicate.  Seeds attach to mappings by structural key, so any
   partition over workers sees them identically. *)
let merge_seed_population ~mappings initial_population =
  let seed_tbl = Hashtbl.create 8 in
  let seed_mappings = ref [] in
  List.iter
    (fun c ->
      let k = mapping_key c.mapping in
      if not (Hashtbl.mem seed_tbl k) then
        seed_mappings := c.mapping :: !seed_mappings;
      Hashtbl.replace seed_tbl k
        (c.schedule
        :: (match Hashtbl.find_opt seed_tbl k with Some l -> l | None -> [])))
    initial_population;
  let known = List.map mapping_key mappings in
  let extra =
    List.filter
      (fun m -> not (List.mem (mapping_key m) known))
      (List.rev !seed_mappings)
  in
  let seeds_for m =
    match Hashtbl.find_opt seed_tbl (mapping_key m) with
    | Some l -> List.rev l
    | None -> []
  in
  let is_seeded m = Hashtbl.mem seed_tbl (mapping_key m) in
  (mappings @ extra, seeds_for, is_seeded)

(* The per-mapping evaluation engine.  With [memo] on it holds the
   allocation-lean fast path of ROADMAP item 3: the schedule-independent
   half of lowering is prepared once ({!Codegen.prepare}), the perf-model
   config constants are hoisted once ({!Perf_model.context}), schedule
   generation runs through a precomputed {!Schedule.space}, and predicted
   seconds are memoized per schedule — converged genetic populations
   re-propose the same schedules constantly.  With [memo] off every call
   recomputes from scratch (the pre-change code path).  Both produce
   bit-identical floats: the cached value is the recomputed value, the
   [*_in] schedule functions draw the same RNG stream, and evaluation
   counts are closed-form — the throughput suite checks full-tune
   equivalence across seeds and accelerators. *)
type engine = {
  e_default : unit -> Schedule.t;
  e_random : Rng.t -> Schedule.t;
  e_mutate : Rng.t -> Schedule.t -> Schedule.t;
  e_validate : Schedule.t -> bool;
  e_predict : Schedule.t -> float;
  e_measure : Schedule.t -> float;
  e_summary : Schedule.t -> Spatial_sim.Kernel.summary;
}

let engine ~memo ~accel mapping =
  if memo then
    let space = Schedule.space mapping in
    let prepared = Codegen.prepare accel mapping in
    let ctx = Perf_model.context accel.Accelerator.config in
    let cache : (Schedule.t, float) Hashtbl.t = Hashtbl.create 64 in
    {
      e_default = (fun () -> Schedule.default_in space);
      e_random = (fun rng -> Schedule.random_in space rng);
      e_mutate = (fun rng s -> Schedule.mutate_in space rng s);
      e_validate = Schedule.validate_in space;
      e_predict =
        (fun s ->
          match Hashtbl.find_opt cache s with
          | Some v -> v
          | None ->
              let v =
                Perf_model.predict_seconds_summary ctx
                  (Codegen.summarize_prepared prepared s)
              in
              Hashtbl.add cache s v;
              v);
      e_measure =
        (fun s ->
          Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
            (Codegen.lower_prepared prepared s));
      e_summary = Codegen.summarize_prepared prepared;
    }
  else
    {
      e_default = (fun () -> Schedule.default mapping);
      e_random = (fun rng -> Schedule.random rng mapping);
      e_mutate = (fun rng s -> Schedule.mutate rng mapping s);
      e_validate = (fun s -> Schedule.validate mapping s);
      e_predict = (fun s -> predict accel { mapping; schedule = s });
      e_measure = (fun s -> measure accel { mapping; schedule = s });
      e_summary =
        (fun s ->
          Spatial_sim.Kernel.summarize (Codegen.lower accel mapping s));
    }

let schedule_search ?tick ?abort ?(seeds = []) ~population ~generations ~rng
    ~eng () =
  let score sched = (sched, eng.e_predict sched) in
  (* seed schedules join the initial genetic population alongside the
     default and the random draws: they compete, they never replace *)
  let initial =
    (score (eng.e_default ()) :: List.map score seeds)
    @ List.init population (fun _ -> score (eng.e_random rng))
  in
  let sorted l = List.sort (fun (_, a) (_, b) -> Float.compare a b) l in
  let aborted () = match abort with None -> false | Some f -> f () in
  let rec go gen pop =
    if gen = 0 then sorted pop
    else begin
      (* the abort flag is polled exactly here — the generation boundary
         of the tentpole's "last waiter detached" semantics *)
      if aborted () then raise Aborted;
      let ranked = sorted pop in
      (match (tick, ranked) with
      | Some f, (_, best) :: _ -> f best
      | _ -> ());
      let survivors = List.filteri (fun i _ -> i < max 2 (population / 2)) ranked in
      let parents = Array.of_list (List.map fst survivors) in
      let children =
        List.init population (fun _ ->
            let a = parents.(Rng.int rng (Array.length parents)) in
            let sched =
              if Rng.bool rng then
                Schedule.crossover rng a
                  parents.(Rng.int rng (Array.length parents))
              else eng.e_mutate rng a
            in
            score sched)
      in
      go (gen - 1) (survivors @ children)
    end
  in
  go generations initial

(* phase 1 unit: screen one mapping with its default schedule and a few
   random ones.  Returns the best predicted time and the number of model
   evaluations spent; deterministic per mapping (see [mapping_seed]). *)
let screen_mapping ?(memo = true) ~accel mapping =
  let eng = engine ~memo ~accel mapping in
  let rng = Rng.create (mapping_seed mapping) in
  let quick = eng.e_default () :: List.init 6 (fun _ -> eng.e_random rng) in
  let best =
    List.fold_left
      (fun acc sched -> Float.min acc (eng.e_predict sched))
      infinity quick
  in
  (best, List.length quick)

let select_survivors ?(must_keep = fun _ -> false) screened =
  let by_screen =
    List.filteri
      (fun i _ -> i < 12)
      (List.sort (fun (_, a) (_, b) -> Float.compare a b) screened)
  in
  (* high-utilization mappings (im2col-style maximal fusions) always get a
     full search even when the quick screen is unlucky about them *)
  let by_utilization =
    let key (m : Mapping.t) =
      (-.m.Mapping.utilization, List.length m.Mapping.outer_sw)
    in
    List.filteri
      (fun i _ -> i < 4)
      (List.sort
         (fun ((a : Mapping.t), _) (b, _) -> compare (key a) (key b))
         screened)
  in
  let dedup_append acc extra =
    List.fold_left
      (fun acc (m, p) ->
        if List.exists (fun (m', _) -> m' == m) acc then acc
        else acc @ [ (m, p) ])
      acc extra
  in
  (* seeded (migrated) mappings always earn a full search: they compete
     with the screen winners instead of replacing them *)
  dedup_append
    (dedup_append by_screen by_utilization)
    (List.filter (fun (m, _) -> must_keep m) screened)

(* phase 2 unit: full genetic schedule search for one mapping, measuring
   the [measure_top] best model-ranked schedules on the simulator.
   Deterministic per mapping, like [screen_mapping].  [salt] selects an
   independent RNG stream over the same mapping: shard [i] of a
   population split across workers passes [~salt:i], so the shards
   explore disjoint schedule sequences yet each remains reproducible. *)
let search_mapping ?(salt = 0) ?(seeds = []) ?(memo = true) ?observe ?tick
    ?abort ~population ~generations ~measure_top ~accel mapping =
  let eng = engine ~memo ~accel mapping in
  let rng =
    Rng.create
      (if salt = 0 then mapping_seed mapping
       else Hashtbl.hash (mapping_seed mapping, salt))
  in
  let seeds = List.filter eng.e_validate seeds in
  let ranked =
    schedule_search ?tick ?abort ~seeds ~population ~generations ~rng ~eng ()
  in
  let top = List.filteri (fun i _ -> i < measure_top) ranked in
  let measure_plan (schedule, predicted) =
    let measured = eng.e_measure schedule in
    Option.iter
      (fun f ->
        f
          {
            ob_summary = eng.e_summary schedule;
            ob_predicted = predicted;
            ob_measured = measured;
          })
      observe;
    { candidate = { mapping; schedule }; predicted; measured }
  in
  (* seed schedules are always measured, even when the model ranks them
     out of the top: the search result can then never be worse than the
     seeds it was given *)
  let seed_extras =
    List.filter_map
      (fun s ->
        if List.mem_assoc s top then None else Some (s, eng.e_predict s))
      seeds
  in
  ( List.map measure_plan (top @ seed_extras),
    population * (generations + 1) + List.length seeds )

let assemble ?(failures = []) plans ~evaluations =
  let best =
    match plans with
    | [] -> (
        match failures with
        | [] -> invalid_arg "Explore.tune: no feasible plan"
        | fs ->
            failwith
              (Printf.sprintf "Explore.tune: every mapping failed: %s"
                 (String.concat "; "
                    (List.map (fun (m, e) -> m ^ ": " ^ e) fs))))
    | p :: rest ->
        List.fold_left
          (fun acc pl -> if pl.measured < acc.measured then pl else acc)
          p rest
  in
  {
    best;
    evaluations;
    history = List.map (fun p -> (p.predicted, p.measured)) plans;
    failures;
  }

(* One retry per task: transient failures (an OOM blip, a flaky
   measurement harness) heal silently; a deterministic failure raises
   identically twice and is reported once.  [Invalid_argument] is a
   contract violation (e.g. an empty input reaching [tune]) that no retry
   can repair — it is captured on the first raise, never retried.
   [Aborted] is a deliberate teardown, not a failure: retrying would
   restart the very search being cancelled, so it too is captured
   immediately (the merge in [tune_with] re-raises it). *)
let attempt f x =
  match f x with
  | v -> Ok v
  | exception (Invalid_argument _ as e) -> Error e
  | exception (Aborted as e) -> Error e
  | exception _first -> ( match f x with v -> Ok v | exception e -> Error e)

(* Order-preserving parallel map: [jobs - 1] spawned domains plus the
   calling one pull task indices from a shared atomic counter and write
   into a per-index slot, so the merge order — and therefore the final
   result — is independent of scheduling.  The work units themselves are
   deterministic (their RNG streams derive from the mapping, not the
   worker), which is what makes this fan-out safe.

   Every task's outcome is captured as a [Result] inside the worker, so
   one raising task can neither kill its worker domain nor discard the
   slots its siblings already filled; the spawned domains are joined in
   a [Fun.protect] finalizer, so no exit path leaks a running domain. *)
let parallel_map_result ~jobs f arr =
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then Array.map (attempt f) arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (attempt f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      worker;
    Array.map
      (function
        | Some r -> r
        | None -> Error (Failure "Explore: task never executed"))
      results
  end

(* The exploration driver: screen every mapping, select the survivors,
   search them, assemble.  Both phases fan out over [jobs] domains and
   merge in task order, so the result does not depend on scheduling.

   When the space has fewer mappings than [jobs], per-mapping fan-out
   would leave domains idle, so each survivor's genetic search is split
   into [shards]: shard [i] gets a [population / shards] slice of the
   budget and its own salted RNG stream, and shards merge in (survivor,
   shard) order.  With one shard this is exactly the unsplit search.
   Shards never outnumber the population, so the slices partition the
   budget and every shard holds at least one candidate. *)
let tune_with ~jobs ~population ~must_keep ~screen ~search ~mappings () =
  let failures = ref [] in
  (* runs on the calling domain after every worker joined; an abort is
     the whole exploration tearing down, never a per-mapping failure.
     The merge writes into no cell that outlived the fan-out: such a
     cell has reached the major heap, and every young value stored into
     it would be promoted with it. *)
  let run mapping_of tasks f =
    parallel_map_result ~jobs f tasks
    |> Array.mapi (fun i r -> (tasks.(i), r))
    |> Array.to_list
    |> List.filter_map (function
         | t, Ok v -> Some (t, v)
         | _, Error Aborted -> raise Aborted
         | t, Error e ->
             failures :=
               (Mapping.describe (mapping_of t), Printexc.to_string e)
               :: !failures;
             None)
  in
  let n_mappings = List.length mappings in
  let screened = run Fun.id (Array.of_list mappings) screen in
  let screen_evals =
    List.fold_left (fun acc (_, (_, n)) -> acc + n) 0 screened
  in
  let survivors =
    select_survivors ~must_keep
      (List.map (fun (m, (best, _)) -> (m, best)) screened)
  in
  let shards =
    if jobs > n_mappings then
      max 1 (min population (jobs / max 1 (List.length survivors)))
    else 1
  in
  let slice shard =
    (population / shards) + if shard < population mod shards then 1 else 0
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (m, _) -> List.init shards (fun i -> (m, i)))
         survivors)
  in
  let searched =
    run fst tasks (fun (m, shard) ->
        search m ~shard ~population:(slice shard))
  in
  let evaluations =
    List.fold_left (fun acc (_, (_, n)) -> acc + n) screen_evals searched
  in
  assemble ~failures:(List.rev !failures)
    (List.concat_map (fun (_, (plans, _)) -> plans) searched)
    ~evaluations

(* Two-phase exploration mirroring the paper's flow: the analytical model
   first screens the mapping space cheaply, then each surviving mapping
   gets a full schedule search (the same budget a template compiler would
   spend on its single hand-written mapping), and the best model-ranked
   plans are measured on the simulator. *)
let tune ?(jobs = 1) ?(population = 16) ?(generations = 8) ?(measure_top = 3)
    ?(initial_population = []) ?(memo = true) ?observe ?progress ?abort ~rng
    ~accel ~mappings () =
  if mappings = [] && initial_population = [] then
    invalid_arg "Explore.tune: no mappings";
  (* historical draw, kept so callers sharing an rng see the same stream *)
  let _base_seed = Rng.int rng 1_000_000_000 in
  let mappings, seeds_for, is_seeded =
    merge_seed_population ~mappings initial_population
  in
  (* one mutex guards the progress counters and serialises the caller's
     [progress] and [observe] callbacks, which fire from worker domains:
     a single-threaded consumer (appending to a log, pushing on a list)
     is safe as-is.  Generations count globally across mappings and
     shards. *)
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let gens = ref 0 and evals = ref 0 in
  let best_pred = ref infinity and best_meas = ref infinity in
  let tick pop =
    Option.map
      (fun f best ->
        locked (fun () ->
            incr gens;
            evals := !evals + pop;
            if best < !best_pred then best_pred := best;
            f
              {
                pr_generation = !gens;
                pr_best_predicted = !best_pred;
                pr_best_measured = !best_meas;
                pr_evaluations = !evals;
              }))
      progress
  in
  (* the caller's [observe] is serialised only when there is one: no
     observation is built for a tune nobody logs *)
  let observe = Option.map (fun f ob -> locked (fun () -> f ob)) observe in
  tune_with ~jobs ~population ~must_keep:is_seeded
    ~screen:(screen_mapping ~memo ~accel)
    ~search:(fun m ~shard ~population ->
      (* seeds attach to shard 0 only, so a seed is measured once *)
      let ((plans, _) as found) =
        search_mapping ~salt:shard
          ~seeds:(if shard = 0 then seeds_for m else [])
          ~memo ?observe ?tick:(tick population) ?abort ~population
          ~generations ~measure_top ~accel m
      in
      (* the best measurement so far comes from the plans a finished
         search returns *)
      locked (fun () ->
          List.iter
            (fun p -> if p.measured < !best_meas then best_meas := p.measured)
            plans);
      found)
    ~mappings ()

let mapping_space ?filter ?memo accel op =
  List.concat_map
    (fun intr ->
      List.map Mapping.make (Mapping_gen.generate_op ?filter ?memo op intr))
    accel.Accelerator.intrinsics

let tune_op ?jobs ?population ?generations ?measure_top ?filter ?memo ?observe
    ~rng ~accel op =
  match mapping_space ?filter ?memo accel op with
  | [] -> None
  | mappings ->
      Some
        (tune ?jobs ?population ?generations ?measure_top ?memo ?observe ~rng
           ~accel ~mappings ())

let sample ~n ~rng ~accel ~mappings =
  if mappings = [] then invalid_arg "Explore.sample: no mappings";
  let mappings = Array.of_list mappings in
  List.init n (fun _ ->
      let mapping = mappings.(Rng.int rng (Array.length mappings)) in
      let c = { mapping; schedule = Schedule.random rng mapping } in
      (predict accel c, measure accel c))

let trajectory ~flops history =
  let _, acc =
    List.fold_left
      (fun (best, acc) (_, measured) ->
        let best = Float.min best measured in
        let gflops = if best = infinity then 0. else flops /. best /. 1e9 in
        (best, (List.length acc + 1, gflops) :: acc))
      (infinity, []) history
  in
  List.rev acc

let pairwise_accuracy samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  if n < 2 then 1.0
  else begin
    let agree = ref 0 and total = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let pi, mi = arr.(i) and pj, mj = arr.(j) in
        if mi <> mj then begin
          incr total;
          if (pi < pj) = (mi < mj) then incr agree
        end
      done
    done;
    if !total = 0 then 1.0 else float_of_int !agree /. float_of_int !total
  end

let topk_recall ~top_rate samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  if n = 0 then 1.0
  else begin
    let k = max 1 (int_of_float (ceil (top_rate *. float_of_int n))) in
    let by_measured =
      List.sort (fun (_, a) (_, b) -> Float.compare a b) samples
    in
    let by_predicted =
      List.sort (fun (a, _) (b, _) -> Float.compare a b) samples
    in
    let take l = List.filteri (fun i _ -> i < k) l in
    let true_top = take by_measured and model_top = take by_predicted in
    let hits =
      List.length (List.filter (fun x -> List.memq x model_top) true_top)
    in
    float_of_int hits /. float_of_int k
  end
