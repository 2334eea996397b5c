open Amos

let default_jobs () = min 8 (Domain.recommended_domain_count ())

let tune_op ?(jobs = default_jobs ()) ?population ?generations ?measure_top
    ?filter ?observe ~rng ~accel op =
  Explore.tune_op ~jobs ?population ?generations ?measure_top ?filter ?observe
    ~rng ~accel op
