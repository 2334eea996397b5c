(** Parallel tuning defaults.

    The exploration itself, parallel or not, is {!Amos.Explore.tune}
    with its [?jobs] fan-out; this module supplies the default domain
    count and a {!tune_op} that uses it. *)

open Amos
open Amos_ir

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val tune_op :
  ?jobs:int ->
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?filter:bool ->
  ?observe:(Explore.observation -> unit) ->
  rng:Amos_tensor.Rng.t ->
  accel:Accelerator.t ->
  Operator.t ->
  Explore.result option
(** [Explore.tune_op] with [jobs] defaulting to {!default_jobs}. *)
