(** Joint exploration of mappings and schedules (Sec 5.3).

    A genetic tuner over (mapping, schedule) candidates: the analytical
    model ({!Perf_model}) screens every candidate cheaply; the survivors
    of each generation are mutated and crossed over; finally the best
    model-ranked candidates are measured on the structural simulator and
    the best measured plan wins — mirroring the paper's
    model-plus-tuning flow.

    [rank_metrics] computes the pairwise (rank) accuracy and top-k recall
    between model predictions and measurements used in the Fig 5 model
    validation. *)

type candidate = {
  mapping : Mapping.t;
  schedule : Schedule.t;
}

type plan = {
  candidate : candidate;
  predicted : float;  (** model seconds *)
  measured : float;  (** simulator seconds *)
}

type result = {
  best : plan;
  evaluations : int;
  history : (float * float) list;
      (** (predicted, measured) per explored candidate, in order *)
  failures : (string * string) list;
      (** per-mapping search errors, as ([Mapping.describe], error
          message) pairs: a raising work unit loses that mapping only —
          the siblings' plans still compete for [best] *)
}

type observation = {
  ob_summary : Spatial_sim.Kernel.summary;  (** what the model screened *)
  ob_predicted : float;  (** analytic model seconds *)
  ob_measured : float;  (** simulator seconds *)
}
(** One simulator measurement, reported through [?observe] as it
    happens.  The callback is a pure side channel: it cannot perturb
    the RNG streams, rankings or results, which is what lets every
    tuning run feed the observation log ([Amos_learn.Obs_log]) for
    free. *)

exception Aborted
(** Raised (out of {!tune} / {!search_mapping}) when the [?abort] poll
    returns [true] at a generation boundary of the genetic search.  It
    escapes the per-mapping failure containment: an aborted exploration
    has no result at all. *)

type progress = {
  pr_generation : int;  (** genetic generations completed so far *)
  pr_best_predicted : float;
      (** best predicted seconds so far; [infinity]
          before the first generation ranks *)
  pr_best_measured : float;
      (** best simulator seconds so far; [infinity] before the first
          measurement *)
  pr_evaluations : int;
      (** genetic-search model evaluations so far: each completed
          generation adds its population (its shard's slice when the
          population is split) *)
}
(** One per-generation snapshot of an in-flight exploration, reported
    through [?progress].  Like {!observation}, a pure side channel. *)

val tune :
  ?jobs:int ->
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?initial_population:candidate list ->
  ?memo:bool ->
  ?observe:(observation -> unit) ->
  ?progress:(progress -> unit) ->
  ?abort:(unit -> bool) ->
  rng:Amos_tensor.Rng.t ->
  accel:Accelerator.t ->
  mappings:Mapping.t list ->
  unit ->
  result
(** Two-phase search: every mapping is screened by the model with a
    handful of schedules; the best dozen mappings (plus the
    highest-utilization ones, see {!select_survivors}) each receive a
    full genetic schedule search with the given [population] x
    [generations] budget (what a template compiler spends on its one
    hand-written mapping); the [measure_top] best schedules per mapping
    are measured on the simulator.

    [jobs] (default 1) fans both phases out over that many OCaml 5
    domains.  Every work unit draws its RNG stream from {!mapping_seed}
    and results merge in task order, so the result is bit-identical for
    every [jobs] — except when the space has {e fewer mappings than
    jobs}: each survivor's genetic search then runs as up to
    [jobs / survivors] shards (never more than [population]) with
    salted RNG streams and a partitioned population budget.  That path
    is deterministic for a fixed (seed, jobs) pair and spends the same
    evaluations, but a different [jobs] may surface a different, equally
    valid winner.

    Failure isolation: every work unit is retried once, and a mapping
    whose unit raises twice is dropped and reported in [failures]
    (raised [Invalid_argument] and {!Aborted} are never retried).  One
    raising mapping can neither kill a worker domain, leak unjoined
    domains, nor discard the plans its siblings found.

    [initial_population] seeds the search with known-good plans (e.g.
    plans migrated from a sibling accelerator, see
    [Amos_service.Migrate]): seed mappings join the mapping space and
    always earn a full schedule search, seed schedules join that
    mapping's genetic initial population, and every seed is measured —
    so seeds {e compete with} the random candidates and the result is
    never worse than the best seed, but a seed never displaces a random
    candidate from the budget.

    Raises [Invalid_argument] when both [mappings] and
    [initial_population] are empty, or no candidate is feasible, and
    [Failure] when every mapping failed.

    [memo] (default [true]) turns on the allocation-lean fast path: the
    schedule-independent half of lowering is prepared once per mapping
    ({!Codegen.prepare}), predicted seconds are memoized per schedule,
    perf-model config constants are hoisted ({!Perf_model.context}), and
    schedule generation runs through a precomputed {!Schedule.space}.
    [~memo:false] recomputes everything per candidate (the pre-change
    code path).  Results are bit-identical either way — best plan,
    history, evaluation counts — which the throughput test suite checks
    across seeds and accelerators.

    [observe] is called once per simulator measurement with the
    {!observation} it produced.

    [progress] is called once per completed genetic generation with the
    aggregated {!progress} snapshot ([pr_generation] counts globally
    across mappings and shards); [abort] is polled at every generation
    boundary of every worker, and returning [true] raises {!Aborted} out
    of the whole exploration after all domains joined.  Neither affects
    results.  [observe] and [progress] callbacks are serialized behind
    one mutex, so a single-threaded consumer is safe as-is — though the
    {e order} of observations across domains depends on scheduling. *)

val mapping_space :
  ?filter:bool -> ?memo:bool -> Accelerator.t -> Amos_ir.Operator.t -> Mapping.t list
(** The mapping space of an operator: {!Mapping_gen.generate_op} over
    {e every} intrinsic the accelerator exposes (intrinsic selection is
    part of the search).  [filter] and [memo] as in
    {!Mapping_gen.generate_op}. *)

val tune_op :
  ?jobs:int ->
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?filter:bool ->
  ?memo:bool ->
  ?observe:(observation -> unit) ->
  rng:Amos_tensor.Rng.t ->
  accel:Accelerator.t ->
  Amos_ir.Operator.t ->
  result option
(** {!tune} over the operator's {!mapping_space}; [None] when the
    operator has no valid mapping. *)

(** {2 Decomposed search primitives}

    [tune] composes the functions below.  Each per-mapping unit derives
    its RNG stream from {!mapping_seed}, so the work units are
    independent and deterministic: any partition of the mapping list
    over parallel workers reproduces the sequential result exactly. *)

val mapping_seed : Mapping.t -> int
(** Stable seed of a mapping's schedule-search stream: a hash of the
    mapping structure, independent of surrounding mappings, callers and
    workers. *)

val mapping_key : Mapping.t -> string * string
(** Structural identity of a mapping (description, intrinsic name):
    stable across separately constructed but structurally equal mappings,
    unlike the physical identity of the [Iter.t] ids inside. *)

val screen_mapping :
  ?memo:bool -> accel:Accelerator.t -> Mapping.t -> float * int
(** Phase-1 unit: best predicted seconds of the default plus a few
    random schedules, and the number of model evaluations spent.
    [memo] as in {!tune}. *)

val select_survivors :
  ?must_keep:(Mapping.t -> bool) ->
  (Mapping.t * float) list ->
  (Mapping.t * float) list
(** The mappings that earn a full schedule search: the best dozen by
    screen score plus the highest-utilization fusions, plus every
    screened mapping satisfying [must_keep] (seeded mappings). *)

val search_mapping :
  ?salt:int ->
  ?seeds:Schedule.t list ->
  ?memo:bool ->
  ?observe:(observation -> unit) ->
  ?tick:(float -> unit) ->
  ?abort:(unit -> bool) ->
  population:int ->
  generations:int ->
  measure_top:int ->
  accel:Accelerator.t ->
  Mapping.t ->
  plan list * int
(** Phase-2 unit: genetic schedule search over one mapping; returns the
    [measure_top] best plans (model rank order, simulator-measured) and
    the evaluations spent.  [seeds] (schedules valid for this mapping;
    invalid ones are dropped) join the initial genetic population and are
    additionally always measured.  [salt] (default 0) selects an
    independent deterministic RNG stream over the same mapping — shard
    [i] of a genetic population split across parallel workers passes
    [~salt:i]; salt 0 is bit-identical to the pre-salt behaviour.
    [observe] as in {!tune}: it fires once per simulator measurement.  [tick] fires once per
    completed generation with that generation's best predicted seconds;
    [abort] is polled at each generation boundary and raises {!Aborted}
    when it returns [true]. *)

val assemble :
  ?failures:(string * string) list -> plan list -> evaluations:int -> result
(** Combine measured plans (in exploration order) into a [result];
    raises [Invalid_argument] on the empty list with no failures, and
    [Failure] (naming every failed mapping) when all mappings failed. *)

val parallel_map_result :
  jobs:int -> ('a -> 'b) -> 'a array -> ('b, exn) Stdlib.result array
(** Order-preserving parallel map over [jobs] domains with per-task
    failure capture and one retry ([Invalid_argument] and {!Aborted} are
    captured on the first raise).  All spawned domains are joined before
    this returns, on every exit path. *)

val tune_with :
  jobs:int ->
  population:int ->
  must_keep:(Mapping.t -> bool) ->
  screen:(Mapping.t -> float * int) ->
  search:(Mapping.t -> shard:int -> population:int -> plan list * int) ->
  mappings:Mapping.t list ->
  unit ->
  result
(** The driver behind {!tune}, with the two per-mapping work units
    supplied by the caller — [tune] passes {!screen_mapping} and
    {!search_mapping}.  [must_keep] goes to {!select_survivors}.  Each
    search call receives the survivor's [shard] index and that shard's
    slice of [population] (the whole of it unless the population is
    split, see {!tune}).  A unit failing with {!Aborted}
    re-raises out of the merge after all domains joined instead of being
    recorded.  Exposed so the failure-isolation contract is testable
    with units that raise on demand. *)

val sample :
  n:int ->
  rng:Amos_tensor.Rng.t ->
  accel:Accelerator.t ->
  mappings:Mapping.t list ->
  (float * float) list
(** [n] random candidates, each both predicted and measured — the raw data
    of the Fig 5 model-validation experiment. *)

val trajectory : flops:float -> (float * float) list -> (int * float) list
(** Best-so-far measured GFLOPS after each exploration step, from a
    (predicted, measured seconds) history — the blue curve of Fig 5. *)

val pairwise_accuracy : (float * float) list -> float
(** Fraction of candidate pairs whose model order matches the measured
    order (0.5 = chance). *)

val topk_recall : top_rate:float -> (float * float) list -> float
(** Of the true top-[top_rate] fraction (by measurement), how many the
    model also places in its own top fraction. *)
