(** Parallel tuning defaults and the daemon's worker pool.

    The exploration itself, parallel or not, is {!Amos.Explore.tune}
    with its [?jobs] fan-out; this module supplies the default domain
    count, a {!tune_op} that uses it, and the persistent {!Pool} the
    plan-serving daemon dispatches tunes onto. *)

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

(** Persistent bounded worker pool over OCaml 5 domains.

    Long-lived worker domains pull thunks from a capacity-bounded
    queue; unlike [Explore.parallel_map_result] (spawn + join per call) the
    pool amortises domain startup across a server's lifetime and gives
    callers an admission-control primitive: {!Pool.try_submit} refuses
    work instead of queueing without bound.  The plan-serving daemon
    ([Amos_server.Server]) dispatches tuning onto one of these. *)
module Pool : sig
  type t

  val create : workers:int -> capacity:int -> t
  (** [workers] domains (min 1) and a queue bound of [capacity] pending
      tasks (min 1; running tasks do not count against it). *)

  val try_submit : t -> (unit -> unit) -> bool
  (** Enqueue a task, or return [false] when the queue is at capacity
      or the pool is shutting down — the caller turns that into
      back-pressure (the daemon's [Busy] reply).  Tasks own their error
      handling: an escaping exception is swallowed (a raise would kill
      a worker domain), so deliver results through the closure. *)

  val load : t -> int
  (** Queued plus currently running tasks — the congestion signal
      reported by the daemon's [Stats]. *)

  val shutdown : ?drain:bool -> t -> unit
  (** Stop accepting work and join all workers.  [drain] (default
      [true]) first waits for the queue and every running task to
      finish; [drain:false] discards queued tasks (running ones still
      complete).  Idempotent. *)
end
