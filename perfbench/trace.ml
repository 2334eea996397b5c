(* Spans recorded by the benchmark around its calls into the program.

   A span is a named interval with the span that caused it and the
   request it belongs to.  Spans are kept in memory (behind a mutex, so
   worker domains and sender threads may record) and written out once,
   when the benchmark ends.  A disabled recorder runs the body and
   nothing else, which is how the untraced run times the same code. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** request id, [-1] when the span serves no request *)
}

type t = {
  enabled : bool;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create ~enabled () = { enabled; mu = Mutex.create (); next = 0; spans = [] }

let enabled t = t.enabled

let fresh_id t =
  Mutex.lock t.mu;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.mu;
  id

let add t s =
  Mutex.lock t.mu;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mu

(* [with_span t name f] runs [f id], where [id] is the new span's id for
   children to name as their parent.  The span is recorded even when [f]
   raises. *)
let with_span t ?(parent = -1) ?(req = -1) name f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        add t { id; name; start; stop = Unix.gettimeofday (); parent; req })
      (fun () -> f id)
  end

(* a span whose interval was measured elsewhere (e.g. by a load
   generator that must stamp its own send and receive times) *)
let record t ?(parent = -1) ?(req = -1) name ~start ~stop =
  if not t.enabled then -1
  else begin
    let id = fresh_id t in
    add t { id; name; start; stop; parent; req };
    id
  end

let spans t =
  Mutex.lock t.mu;
  let s = List.rev t.spans in
  Mutex.unlock t.mu;
  s

let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]:
   concurrent children overlap, and overlapping time is busy once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Per span name: (count, total duration, total self time), by name. *)
let summary spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, d, st =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, d +. duration s, st +. self))
    (self_times spans);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort compare

let total_by_name spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. spans

(* Cost of recording one span, measured by recording 20,000 empty ones
   into a throwaway recorder: the direct overhead tracing adds per span. *)
let span_cost () =
  let n = 20_000 in
  let t = create ~enabled:true () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    with_span t "calibrate" (fun _ -> ())
  done;
  (Unix.gettimeofday () -. t0) /. float n

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d}\n"
        s.id s.name s.start s.stop s.parent s.req)
    (spans t);
  close_out oc
