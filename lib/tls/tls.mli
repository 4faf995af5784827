(** Pluggable thread-local storage.

    Libraries in this project (notably {!Pku}, whose pkru register is a
    per-thread value) need "the current thread's slot" to mean different
    things depending on the execution substrate:

    - under real OS threads, a slot per [Thread.t];
    - under the virtual-time machine ({!Vm}), a slot per {e simulated}
      thread, of which many share one OS thread.

    This module provides typed keys over a per-thread table, with a
    pluggable provider: the default provider keys tables by OS thread;
    the VM installs a provider that returns the running virtual thread's
    table while the simulation executes. *)

type table
(** A bag of thread-local values, owned by one (real or virtual) thread. *)

type 'a key
(** A typed slot name, usable across all threads. *)

val new_key : (unit -> 'a) -> 'a key
(** [new_key init] allocates a fresh slot; [init] runs lazily the first
    time a thread reads the slot. *)

val get : 'a key -> 'a
(** Current thread's value for the key, initialising it if absent. *)

val set : 'a key -> 'a -> unit
(** Set the current thread's value for the key. *)

val clear : 'a key -> unit
(** Drop the current thread's value; a later {!get} re-initialises. *)

val fresh_table : unit -> table
(** An empty table, for providers that manage their own threads. It
    runs under the calling thread's machine. *)

val install_provider : (unit -> table) -> unit
(** Route {!get}/{!set} through [provider ()] instead of the OS-thread
    default. Used by the VM while a simulation runs. *)

val remove_provider : unit -> unit
(** Restore the OS-thread default provider. *)

val provider_installed : unit -> bool
(** True while a custom provider is routing lookups. *)

(** The deployment a thread runs under: one value for the simulated
    machine's kernel-side state (pkeys, vkey slots, files, listeners).
    Each module keeps one key for its state record; {!get} is one
    thread-table read and one array index. A thread spawned by [Vm] or
    [Real_sync] runs under its spawner's machine; other host threads
    start under one default machine. *)
module Machine : sig
  type t

  type 'a key

  val new_key : (unit -> 'a) -> 'a key
  (** A slot in every machine, initialised lazily by [init]. *)

  val create : unit -> t
  (** A fresh machine: no slot initialised, and the calling thread's
      syscall gate (the kernel it boots is the same). *)

  val get : 'a key -> 'a

  val set : 'a key -> 'a -> unit
  (** The calling thread's machine's value for the key. *)

  val run : t -> (unit -> 'a) -> 'a
  (** [run m f] runs [f], and every thread it spawns, under [m]. *)

  val carry : (unit -> 'a) -> unit -> 'a
  (** [carry f] runs [f] under the calling thread's machine wherever
      it is later called: how a substrate starts a thread. *)

  val syscall_gate : unit -> [ `Alloc | `Free | `Mprotect ] -> unit

  val set_syscall_gate : ([ `Alloc | `Free | `Mprotect ] -> unit) -> unit
  (** The machine's seccomp-style gate for the pkey syscalls
      ([pkey_alloc], [pkey_free], a user-mode [pkey_mprotect]). *)
end
