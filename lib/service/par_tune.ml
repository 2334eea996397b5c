open Amos

let default_jobs () = min 8 (Domain.recommended_domain_count ())

let tune_op ?(jobs = default_jobs ()) ?population ?generations ?measure_top
    ?filter ?observe ~rng ~accel op =
  Explore.tune_op ~jobs ?population ?generations ?measure_top ?filter ?observe
    ~rng ~accel op

(* Persistent bounded worker pool: long-lived domains pulling thunks
   from a capacity-bounded queue.  Unlike [Explore.parallel_map_result] (which
   spawns and joins domains per call) the pool amortises domain startup
   across a server's lifetime and gives callers an admission-control
   primitive: [try_submit] refuses instead of queueing unboundedly. *)
module Pool = struct
  type t = {
    mutex : Mutex.t;
    not_empty : Condition.t;  (* queue gained work, or stopping *)
    idle : Condition.t;  (* queue empty and nothing running *)
    queue : (unit -> unit) Queue.t;
    capacity : int;
    mutable workers : unit Domain.t list;
    mutable running : int;  (* tasks currently executing *)
    mutable stopping : bool;
  }

  let rec worker_loop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.mutex
    done;
    if Queue.is_empty t.queue then (* stopping, queue drained *)
      Mutex.unlock t.mutex
    else begin
      let task = Queue.pop t.queue in
      t.running <- t.running + 1;
      Mutex.unlock t.mutex;
      (* the task owns its error handling; a raise here would kill the
         worker domain, so the contract is enforced by a last-resort
         swallow rather than trusted *)
      (try task () with _ -> ());
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if Queue.is_empty t.queue && t.running = 0 then
        Condition.broadcast t.idle;
      Mutex.unlock t.mutex;
      worker_loop t
    end

  let create ~workers ~capacity =
    let t =
      {
        mutex = Mutex.create ();
        not_empty = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        capacity = max 1 capacity;
        workers = [];
        running = 0;
        stopping = false;
      }
    in
    t.workers <-
      List.init (max 1 workers) (fun _ ->
          Domain.spawn (fun () -> worker_loop t));
    t

  let try_submit t task =
    Mutex.lock t.mutex;
    let accepted =
      (not t.stopping) && Queue.length t.queue < t.capacity
    in
    if accepted then begin
      Queue.push task t.queue;
      Condition.signal t.not_empty
    end;
    Mutex.unlock t.mutex;
    accepted

  let load t =
    Mutex.lock t.mutex;
    let l = Queue.length t.queue + t.running in
    Mutex.unlock t.mutex;
    l

  let shutdown ?(drain = true) t =
    Mutex.lock t.mutex;
    if drain then
      while not (Queue.is_empty t.queue && t.running = 0) do
        Condition.wait t.idle t.mutex
      done
    else Queue.clear t.queue;
    t.stopping <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
end
