(** Simulated OS processes: an identity (pid, uid/euid, liveness) that
    threads bind to with {!with_process}. Provides the pieces of
    process semantics the paper's safety story depends on — distinct
    uids for the file-permission dance, and independent failure with
    Hodor's completion-grace semantics. *)

type status = Running | Killed of string | Exited

(** The syscalls the simulation models — the surface a seccomp-style
    per-process allowlist polices. The pkey management calls are the
    ones Garmr shows an unfiltered PKU sandbox escapes through. *)
type syscall =
  | Sys_open
  | Sys_unlink
  | Sys_kill
  | Sys_pkey_alloc
  | Sys_pkey_free
  | Sys_pkey_mprotect

type t

exception Process_killed of string
(** Raised at a cancellation point of a thread whose process died. *)

exception Seccomp_violation of string
(** A filtered process attempted a syscall outside its allowlist. *)

val make : ?uid:int -> string -> t

val current : unit -> t
(** The process the calling thread belongs to (the "init" process by
    default). *)

val with_process : t -> (unit -> 'a) -> 'a
(** Bind the calling thread to [t] for the duration of [f]; restores
    the previous binding, exceptions included. *)

val pid : t -> int

val name : t -> string

val uid : t -> int

val euid : t -> int

val set_euid : t -> int -> unit

val alive : t -> bool

val status : t -> status

val kill : ?signal:string -> now_ns:int -> t -> unit
(** SIGKILL-style death from outside. The first kill fixes the
    timestamp and signal used by the grace-window arithmetic; a second
    kill is a counted no-op (see {!kill_count}).
    @raise Invalid_argument if a duplicate kill carries a timestamp
    earlier than the recorded death — virtual time cannot run
    backwards. *)

val exit : t -> unit

val killed_at : t -> int option

val kill_count : t -> int
(** Total {!kill} deliveries, duplicates included — lets tests assert
    that a second kill during the grace window was observed (and
    ignored) rather than silently replacing the first timestamp. *)

(** {1 Library-call accounting (Hodor's completion guarantee)} *)

val enter_library : t -> unit

val leave_library : t -> unit

val in_library_calls : t -> int

val check_alive : unit -> unit
(** A cancellation point: ordinary code of a dead process stops here;
    Hodor-protected code only checks at trampoline exit.
    @raise Process_killed *)

(** {1 Seccomp-style syscall filtering} *)

val install_filter : t -> syscall list -> unit
(** Install (or tighten) the process's allowlist. Like seccomp(2),
    this is a one-way ratchet: the first install sets the list, later
    installs can only {e intersect} with it — a sandboxed process
    cannot widen its own filter. *)

val filter : t -> syscall list option
(** [None] = unfiltered (no filter ever installed). *)

val check_syscall : syscall -> unit
(** Consult the calling thread's process filter. Ring-0 paths
    ([Shm.Region.kernel_mode]) are exempt, as kernel code is.
    @raise Seccomp_violation on a denied syscall. *)
