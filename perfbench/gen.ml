(* Workload inputs, each a pure function of the workload seed.  Inputs are
   plain descriptions (names, indices, DSL text, due times) so that two
   generations can be compared structurally; the workloads turn them into
   operators only after generation. *)

module Rng = Amos_tensor.Rng
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites
module Networks = Amos_workloads.Networks

let shuffle ~seed xs =
  let a = Array.of_list xs in
  Rng.shuffle (Rng.create seed) a;
  Array.to_list a

(* --- tune_single ---------------------------------------------------- *)

type suite_op = { accel : string; kind : string; index : int }

let tune_accels = [ "a100"; "v100"; "avx512" ]

(* every configuration of the Sec 7.3 suite at batch 1 on every tuned
   accelerator, in a seeded order *)
let tune_order ~seed =
  let ops =
    List.concat_map
      (fun kind ->
        List.mapi
          (fun index _ -> (Ops.kind_name kind, index))
          (Suites.configs_per_kind ~batch:1 kind))
      Ops.all_kinds
  in
  List.concat_map
    (fun accel -> List.map (fun (kind, index) -> { accel; kind; index }) ops)
    tune_accels
  |> shuffle ~seed

(* --- daemon_mix and fleet_hop ---------------------------------------- *)

let gemm_text (m, n, k) =
  Printf.sprintf "for {i:%d, j:%d} for {r:%dr}: out[i,j] += a[i,r] * b[r,j]" m
    n k

(* [count] distinct small GEMM shapes, extents 16..256 in steps of 8 *)
let gemm_shapes ~seed count =
  let rng = Rng.create seed in
  let seen = Hashtbl.create count in
  let dim () = 16 + (8 * Rng.int rng 31) in
  let rec go acc n =
    if n = count then List.rev acc
    else
      let s = (dim (), dim (), dim ()) in
      if Hashtbl.mem seen s then go acc n
      else begin
        Hashtbl.add seen s ();
        go (s :: acc) (n + 1)
      end
  in
  go [] 0

type request_kind =
  | Warm of int  (** repeat [Tune] of working-set op [i] *)
  | Cold of int  (** [Tune] of fresh op [i], never requested before *)
  | Cold_pair of int
      (** one of two identical [Tune]s of fresh op [i], due at the same
          instant on different senders *)
  | Miss of int  (** [Lookup] of fresh op [i], which is never tuned *)

type request = { due : float; kind : request_kind; sender : int }

type schedule = {
  requests : request list;  (** by due time *)
  working_set : string list;  (** DSL text, tuned during set-up *)
  fresh : string list;  (** DSL text of the ops [Cold]/[Miss] name *)
}

(* The daemon mix, per mille of arrivals.  Warm repeats and lookup
   misses touch no tuner, so they measure the daemon's own request path.
   A cold arrival is a burst of [burst] tunes of distinct new ops due at
   one instant, as when a client brings a new model's shapes, so with
   two workers at least one of them waits in admission; a pair arrival is
   two identical tunes.  That makes one request in eighteen a cold tune:
   enough that tunes, plan-cache stores, journal and observation-log
   appends run beside the warm reads in every second of the run, and few
   enough that the warm path stays the bulk of the traffic. *)
let mix_warm = 930
let mix_burst = 15
let mix_pair = 10
let burst = 3

(* Open-loop arrivals: a Poisson process at [rate] per second conditioned
   on its count, i.e. rate x seconds due times drawn uniformly over the
   run and sorted, so every seed offers exactly the same arrivals.  Warm
   repeats and lookup misses go round-robin over senders
   [0, warm_senders); cold tunes over their own senders
   [warm_senders, warm_senders + cold_senders), so a tune in flight never
   holds a warm request behind it on one connection.  The tunes of one
   burst or pair go to different cold senders while there are enough. *)
let daemon_schedule ~seed ~rate ~seconds ~working_set ~warm_senders ~cold_senders =
  let rng = Rng.create (seed + 1) in
  let n = int_of_float (rate *. seconds) in
  let dues = Array.init n (fun _ -> Rng.float rng seconds) in
  Array.sort Float.compare dues;
  let fresh = ref 0 in
  let next_fresh () =
    let i = !fresh in
    incr fresh;
    i
  in
  let round_robin ~first ~count =
    let turn = ref 0 in
    fun () ->
      let s = !turn in
      turn := (s + 1) mod count;
      first + s
  in
  let warm_sender = round_robin ~first:0 ~count:warm_senders in
  let cold_sender = round_robin ~first:warm_senders ~count:cold_senders in
  let requests =
    Array.to_list dues
    |> List.concat_map (fun due ->
           let roll = Rng.int rng 1000 in
           if roll < mix_warm then
             [ { due; kind = Warm (Rng.int rng working_set); sender = warm_sender () } ]
           else if roll < mix_warm + mix_burst then
             List.init burst (fun _ -> { due; kind = Cold (next_fresh ()); sender = cold_sender () })
           else if roll < mix_warm + mix_burst + mix_pair then
             let i = next_fresh () in
             List.init 2 (fun _ -> { due; kind = Cold_pair i; sender = cold_sender () })
           else [ { due; kind = Miss (next_fresh ()); sender = warm_sender () } ])
  in
  let shapes = gemm_shapes ~seed (working_set + !fresh) |> List.map gemm_text in
  let working = List.filteri (fun i _ -> i < working_set) shapes in
  let fresh = List.filteri (fun i _ -> i >= working_set) shapes in
  { requests; working_set = working; fresh }

(* fleet_hop candidates: a seeded stream of distinct GEMMs; the workload
   keeps the ones the ring assigns to daemon A *)
let fleet_candidates ~seed count = List.map gemm_text (gemm_shapes ~seed:(seed + 2) count)

(* the tuning seed that enters every fingerprint of a run *)
let budget_seed ~seed = seed
