(* Helper processes.

   A helper is a child process forked when the benchmark starts, before
   the workload builds any state or starts a thread or a domain, so it
   shares no heap, garbage collector or runtime lock with the program
   under test.  It reads requests from one pipe and answers on another
   with [serve], until the request pipe closes. *)

type t = { pid : int; ask : out_channel; answer : in_channel }

let live = ref []

(* Fork a helper that runs [serve ic oc] on its ends of the pipes; [serve]
   returns, or raises End_of_file, when the parent closes its end. *)
let fork serve =
  flush_all ();
  let ask_r, ask_w = Unix.pipe ~cloexec:true () in
  let answer_r, answer_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close ask_w;
      Unix.close answer_r;
      (* the parent's helpers are not this process's to stop *)
      List.iter (fun h -> close_out_noerr h.ask; close_in_noerr h.answer) !live;
      live := [];
      (try serve (Unix.in_channel_of_descr ask_r) (Unix.out_channel_of_descr answer_w)
       with End_of_file | Sys_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close ask_r;
      Unix.close answer_w;
      let h =
        { pid; ask = Unix.out_channel_of_descr ask_w; answer = Unix.in_channel_of_descr answer_r }
      in
      live := h :: !live;
      h

(* Close the request pipe and wait for the helper to exit. *)
let stop h =
  if List.memq h !live then begin
    live := List.filter (fun x -> x != h) !live;
    close_out_noerr h.ask;
    let rec wait () =
      match Unix.waitpid [] h.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    close_in_noerr h.answer
  end

let stop_all () = List.iter stop !live

(* requests and answers are marshalled values: the helper and the
   parent are the same executable *)
let send h (request : 'a) =
  Marshal.to_channel h.ask request [];
  flush h.ask

let receive h : 'b = Marshal.from_channel h.answer

(* one request and its answer *)
let call h request = send h request; receive h

(* the helper side of [call]: answer requests until the pipe closes *)
let serve_calls (f : 'a -> 'b) ic oc =
  while true do
    let (request : 'a) = Marshal.from_channel ic in
    Marshal.to_channel oc (f request : 'b) [];
    flush oc
  done
