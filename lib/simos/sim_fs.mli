(** A tiny simulated file system holding shared-region "files" with
    Unix-style owner and permission bits — the surface Hodor's
    file-permission story (§3.3) is checked against: the store file is
    owned by the bookkeeping uid with mode 0o600, and only the loader's
    euid dance lets clients use it. Each {!Machine} has its own file
    table. *)

exception Eacces of string

exception Enoent of string

val create_file : path:string -> owner:int -> mode:int -> Shm.Region.t -> unit

val open_region : euid:int -> ?write:bool -> string -> Shm.Region.t
(** Permission-checked open with the caller's {e effective} uid; root
    (euid 0) bypasses.
    @raise Eacces on denial, @raise Enoent for missing paths. *)

val exists : string -> bool

val unlink : string -> unit

val owner : string -> int

val mode : string -> int
