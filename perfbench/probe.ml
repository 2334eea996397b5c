(* Host speed probe.

   Shared 2-core hosts change speed by tens of percent within a minute (on
   the host this benchmark was sized on, a fixed CPU loop read anywhere
   from 14 to 40 ms), and no amount of work inside one run averages that
   away.  Every workload therefore also times a fixed reference kernel
   about every 100 ms of its timed phase, and reports its timings scaled
   to the kernel's nominal speed: what they would read on a host where
   the kernel takes [nominal_s].  The raw values are kept in the results
   file beside the scaled ones.

   The kernel runs in a helper process (see Helper), so it shares no
   heap, garbage collector or runtime lock with the program.  The loop
   workloads ask for it between their units, while they block waiting
   for the answer, and leave that wait out of their own timings.  There
   it is timed in wall time, run in as many domains at once as the
   workload's own (two for compile_cold's jobs-2 passes), so that what
   slows the program's domains, a neighbour holding one of the host's
   cores or the stop-the-world collections waiting for a descheduled
   domain, slows the kernel alike; the program, idle meanwhile, cannot
   slow it.  daemon_mix, which has no pause between units, lets the
   helper run it every 100 ms beside the daemon, timed in the helper's
   CPU time so that waiting for a core the daemon holds is not counted;
   it takes about 5% of one core.  What the kernel still shares with the
   program is the hardware: caches, memory bandwidth and, where the
   host's two CPUs are hyperthreads of one core, the core itself.
   Through those, beside the daemon, the program's own load can slow the
   kernel, and so shrink a regression it reports. *)

let nominal_s = 0.0045

(* allocation, hashing, float arithmetic and a sort: the mix the tuner
   and the daemon run; returns the CPU time and the wall time it took *)
let kernel () =
  let t0 = Sys.time () and w0 = Unix.gettimeofday () in
  let h = Hashtbl.create 256 in
  let acc = ref 0. in
  let l = ref [] in
  for i = 1 to 6_000 do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace h k (float i);
    acc := !acc +. (float k *. 1.0000001);
    l := (float k, i) :: !l
  done;
  let a = Array.of_list !l in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc, a, h));
  (Sys.time () -. t0, Unix.gettimeofday () -. w0)

type request = Once of int | Every of float | Stop

(* [Once n]: the kernel in [n] domains at once, answered with the wall
   time until the last finished *)
let parallel_kernel n =
  let t0 = Unix.gettimeofday () in
  let others = List.init (n - 1) (fun _ -> Domain.spawn kernel) in
  ignore (kernel ());
  List.iter (fun d -> ignore (Domain.join d)) others;
  Unix.gettimeofday () -. t0

(* the helper: one kernel per [Once]; after [Every gap], one kernel every
   [gap] seconds until [Stop], answered with their CPU times *)
let serve ic oc =
  let reply (times : float list) =
    Marshal.to_channel oc times [];
    flush oc
  in
  let fd = Unix.descr_of_in_channel ic in
  while true do
    match (Marshal.from_channel ic : request) with
    | Once n -> reply [ parallel_kernel n ]
    | Stop -> reply []
    | Every gap ->
        let rec loop acc =
          match Unix.select [ fd ] [] [] gap with
          | [], _, _ -> loop (fst (kernel ()) :: acc)
          | _ ->
              ignore (Marshal.from_channel ic : request);
              reply acc
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop acc
        in
        loop []
  done

let helper = ref None

(* Fork the helper.  Call before the program starts any thread or domain. *)
let start () =
  if !helper <> None then invalid_arg "Probe.start: already started";
  helper := Some (Helper.fork serve)

let the_helper () =
  match !helper with Some h -> h | None -> invalid_arg "Probe: helper not started"

type t = {
  width : int;
  mutable samples : float list;
  mutable last : float;
  mutable spent : float;
}

(* [width] is how many domains the program's timed work runs at once *)
let create ?(width = 1) () =
  if width < 1 then invalid_arg "Probe.create: width < 1";
  { width; samples = []; last = neg_infinity; spent = 0. }

(* run the kernel in the helper in [width] domains now and wait for its
   time *)
let sample p =
  let t0 = Unix.gettimeofday () in
  let times : float list = Helper.call (the_helper ()) (Once p.width) in
  p.samples <- times @ p.samples;
  p.last <- Unix.gettimeofday ();
  p.spent <- p.spent +. (p.last -. t0)

(* sample when at least 100 ms passed since the last sample *)
let tick p = if Unix.gettimeofday () -. p.last >= 0.1 then sample p

(* Run [f] with the kernel running every 100 ms beside it. *)
let beside p f =
  let h = the_helper () in
  Helper.send h (Every 0.1);
  let collect () =
    let times : float list = Helper.call h Stop in
    p.samples <- times @ p.samples
  in
  match f () with
  | r ->
      collect ();
      r
  | exception e ->
      collect ();
      raise e

(* seconds spent waiting for the helper so far, to subtract from timed
   walls *)
let spent p = p.spent

let median p =
  match p.samples with [] -> None | xs -> Some (Stats.p50 (Stats.sorted xs))
