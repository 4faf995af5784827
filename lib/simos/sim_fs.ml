(** A tiny simulated file system, holding shared-region "files" with
    Unix-style owner and permission bits.

    Hodor relies on file-system permissions to control who may map a
    protected library's backing file: the K-V store file is owned by
    the bookkeeping process's uid with mode 0o600, and the loader runs
    the library initialisation under that euid (see
    {!Hodor.Loader}), so clients can use the store without being able
    to open the file themselves. This module provides exactly that
    checkable surface. The file table is the current {!Machine}'s, so
    two machines never see each other's paths. *)

exception Eacces of string

exception Enoent of string

type entry = {
  path : string;
  owner : int;
  mode : int;  (** e.g. 0o600 *)
  mutable region : Shm.Region.t option;
}

type fs = { table : (string, entry) Hashtbl.t; lock : Mutex.t }

let fs_key =
  Machine.new_key (fun () -> { table = Hashtbl.create 16; lock = Mutex.create () })

let with_fs f =
  let { table; lock } = Machine.get fs_key in
  Mutex.protect lock (fun () -> f table)

let create_file ~path ~owner ~mode region =
  Process.check_syscall Process.Sys_open;
  with_fs (fun t ->
    Hashtbl.replace t path { path; owner; mode; region = Some region })

let lookup path =
  match with_fs (fun t -> Hashtbl.find_opt t path) with
  | Some e -> e
  | None -> raise (Enoent path)

let exists path = with_fs (fun t -> Hashtbl.mem t path)

let unlink path =
  Process.check_syscall Process.Sys_unlink;
  with_fs (fun t -> Hashtbl.remove t path)

(* Permission check with the caller's *effective* uid, as the kernel
   does. Root (euid 0) bypasses, owner uses the owner triad, everyone
   else the "other" triad. *)
let permits ~euid ~write e =
  let bits =
    if euid = 0 then 0o7
    else if euid = e.owner then (e.mode lsr 6) land 0o7
    else e.mode land 0o7
  in
  let need = if write then 0o6 else 0o4 in
  bits land need = need

let open_region ~euid ?(write = false) path =
  Process.check_syscall Process.Sys_open;
  let e = lookup path in
  if not (permits ~euid ~write e) then
    raise
      (Eacces
         (Printf.sprintf "%s: euid %d denied (owner %d mode %o)" path euid
            e.owner e.mode));
  match e.region with
  | Some r -> r
  | None -> raise (Enoent (path ^ ": no region attached"))

let owner path = (lookup path).owner

let mode path = (lookup path).mode
