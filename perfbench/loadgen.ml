(* One open-loop sender.  Each item is sent at its due time, or as soon as
   the sender is free when an earlier reply came back late; latency is
   measured from the due time, so a stall also charges the requests it
   delayed.  The clock and sleep are parameters so the accounting can be
   tested without sockets or real time. *)

type 'a outcome = {
  due : float;  (** absolute due time *)
  sent : float;
  recv : float;
  result : 'a;
}

let run ~now ~sleep ~base ~send items =
  List.map
    (fun (due, item) ->
      let due = base +. due in
      let t = now () in
      if t < due then sleep (due -. t);
      let sent = now () in
      let result = send item in
      let recv = now () in
      { due; sent; recv; result })
    items

let latency o = o.recv -. o.due

(* how late the generator itself ran *)
let lateness o = Float.max 0. (o.sent -. o.due)
