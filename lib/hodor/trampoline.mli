(** The loader-installed trampoline: the only legitimate site of a
    [wrpkru]. Switches to a library-private stack and opens the
    library's protection key on the way in; restores both on the way
    out (paper §2).

    Fault-tolerance contract (§3.4):
    - a process killed from outside while a thread is inside the
      library has that call run to completion (up to the grace
      timeout), and only then does the thread observe its death;
    - a crash {e inside} the call poisons the library for good. *)

exception Library_call_failed of string * exn
(** Raised to the caller whose call crashed the library; carries the
    library name and the original exception. *)

exception Gate_violation of string
(** The call-site gate checks caught a forged pkru on entry (the
    caller already held the library's key) or a tampered pkru on exit
    (a wrpkru executed inside the call). The offending process is
    terminated; the library is {e not} poisoned — no forged access
    reached shared state. *)

val call : Library.t -> (unit -> 'a) -> 'a
(** Enter the library, run [f] with amplified rights, leave.
    @raise Library.Library_poisoned if the library already crashed.
    @raise Simos.Process.Process_killed after completing [f] if the
    calling process died mid-call.
    @raise Library_call_failed if [f] itself raises. *)

val call_batch : Library.t -> ops:int -> (unit -> 'a) -> 'a
(** One crossing carrying a whole batch: identical to {!call} — one
    stack switch, one pkru swap pair — plus batch accounting
    ([hodor_batch_calls], [hodor_batch_ops], and the "batch_size"
    histogram), so crossings/op = 1/B and pkru writes/op = 2/B are
    measurable. [ops] is the number of operations the body executes;
    raises [Invalid_argument] if < 1. *)

val call_with_args : Library.t -> args:bytes list -> (bytes list -> 'a) -> 'a
(** Like {!call}; when the library was created with [copy_args], [f]
    receives snapshots of [args] taken before entry, so concurrent
    application threads cannot retarget them mid-call. *)

val on_library_stack : unit -> bool
(** True while the calling thread executes inside some library call
    (the "which stack am I on" bookkeeping). *)

val cost : Library.t -> int
(** Modeled round-trip cost of the trampoline, ns. *)
