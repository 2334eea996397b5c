(** Deterministic feature extraction for observation-log records.

    A feature vector is computed from the kernel-free
    {!Spatial_sim.Kernel.summary} the tuner's screen already produces
    ({!Amos.Codegen.summarize_prepared}) plus the machine configuration —
    no kernel construction, no simulation.  The vector describes exactly
    what the analytic model reads (the per-level parallelism products
    [prod S_l] and the L/R/W traffic terms) plus the occupancy ratios the
    analytic model deliberately ignores — the very terms whose absence
    creates the model-vs-simulator gap.

    Every component is nonnegative: counts and byte totals enter as
    [log1p], ratios as [log1p] of the raw ratio, and the intercept is a
    constant 1. *)

val dim : int
(** Length of every feature vector this module produces. *)

val names : string list
(** Component names, index-aligned with {!of_summary} (length {!dim}). *)

val of_summary :
  Spatial_sim.Machine_config.t -> Spatial_sim.Kernel.summary -> float array
(** Pure and deterministic: equal summaries and configs give bit-equal
    vectors.  Every component is finite and [>= 0.]. *)
