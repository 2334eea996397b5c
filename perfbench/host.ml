(* The host block every results file carries, so numbers from different
   machines and revisions can be told apart. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* the checked-out commit, from .git/HEAD and the loose ref it names;
   "none" where that does not resolve (no git metadata, packed refs) *)
let git_rev () =
  try
    let head = first_line (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; name ] -> first_line (read_file (Filename.concat ".git" name))
    | _ -> head
  with Sys_error _ -> "none"

let nproc () = Domain.recommended_domain_count ()

(* peak resident set of this process; /proc files report size 0, so
   read line by line *)
let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> kb
            | None -> go ())
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      go ())

let block ~seed =
  [
    ("nproc", string_of_int (nproc ()));
    ("ocaml", Sys.ocaml_version);
    ("git_rev", git_rev ());
    ("seed", string_of_int seed);
  ]
