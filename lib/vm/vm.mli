(** Deterministic discrete-event virtual-time machine.

    The benchmark harness reproduces the paper's multicore throughput
    results on a single-core box by running the {e real} store code on
    simulated threads whose CPU consumption, lock contention, context
    switches and syscalls advance a virtual clock on a modeled machine
    (by default the paper's 10-core, 2-way-SMT Xeon).

    Execution model (conservative DES):
    - [Sync.advance n] adds [n] modeled nanoseconds to the calling
      thread's private clock without yielding;
    - every {e visible} operation (mutex lock/unlock, channel
      send/receive, spawn, join) first re-synchronises: the thread
      suspends unless its clock is the minimum among runnable threads,
      so visible events execute in global virtual-time order and
      contention outcomes are deterministic;
    - CPU dilation: when more threads are runnable than the machine has
      hardware contexts, [advance] stretches charged time according to
      the core/SMT capacity model.

    Simulated threads are cooperatively scheduled OCaml fibers
    (effects); while a machine runs, {!Tls} lookups resolve per
    {e virtual} thread, so per-thread state such as the pkru register
    is correctly private to each simulated thread. *)

module Config : sig
  type t = {
    cores : int;  (** physical cores *)
    smt : int;  (** hardware threads per core *)
    smt_throughput : float;
    (** total throughput of a core running [smt] busy threads,
        relative to one busy thread *)
    pressure_alpha : float;
    (** additional per-instruction slowdown from cache/memory-system
        contention under oversubscription, ramping to [1 + alpha] *)
    pressure_span : float;
    (** how many extra runnable threads (in multiples of [cores]) it
        takes to reach the full pressure slowdown *)
    pressure_start : float;
    (** fraction of [cores] at which contention begins *)
  }

  val default : t
  (** The paper's testbed: 10 cores, 2-way SMT. *)

  val single_core : t
end

type t

type vthread

exception Deadlock of string
(** Raised by {!run} when live threads remain but none can make
    progress; the payload names the blocked threads. *)

exception Thread_failure of string * exn
(** Raised at the end of {!run} if a simulated thread died with an
    uncaught exception (first failure wins). *)

val create :
  ?config:Config.t -> ?sched_seed:int -> ?preempt_jitter:int -> unit -> t
(** [sched_seed] switches the scheduler into seeded schedule
    exploration: whenever several events (or a resuming thread and a
    queued event) tie at the minimum virtual time, the winner is chosen
    by a seeded RNG instead of FIFO order. Each seed yields one
    deterministic, reproducible interleaving; sweeping seeds explores
    many interleavings of the same workload. [preempt_jitter] (ns,
    requires [sched_seed]) additionally adds up to that much random
    time to every [advance], perturbing which thread reaches each
    synchronization point first. Without [sched_seed] behaviour is
    bit-identical to the historical deterministic-FIFO scheduler. *)

val spawn : t -> ?name:string -> (unit -> unit) -> vthread
(** Register a thread to start at virtual time 0 (before {!run}), or at
    the spawner's current time (from inside a running simulation via
    [Sync.spawn]). *)

val run : ?raise_on_failure:bool -> t -> unit
(** Execute until every thread completes. Not reentrant. *)

val now : t -> int
(** Greatest virtual time reached (valid after {!run}). *)

val events_processed : t -> int
(** Scheduler events consumed — a determinism fingerprint for tests. *)

val failures : t -> (string * exn) list

val mean_runnable : t -> float
(** Time-weighted mean of the runnable-thread count — the CPU-demand
    diagnostic behind the dilation model. *)

(** {2 Crash-point injection}

    Every {e visible} sync point (advance, yield, sleep, lock, unlock,
    channel ops, spawn, join) performed by a thread whose name matches
    the filter is assigned a dense index 0, 1, 2, …; at the designated
    index the thread is killed {e abruptly}: its continuation is dropped
    without unwinding — no finalizers run, whatever it was mutating
    stays half-done. Scheduler-level mutexes it owned are
    robust-released (next waiter acquires), so survivors observe the
    protected state mid-mutation rather than hanging; its open vkey
    grant windows are unpinned. Sweeping [at] over
    [0 .. sync_points_seen] deterministically explores every kill
    site of a workload. *)

val set_crash_point :
  t ->
  ?filter:(string -> bool) ->
  at:int ->
  ?on_crash:(string -> int -> unit) ->
  unit ->
  unit
(** Arm the (single-shot) crash point. [filter] selects victim threads
    by name (default: all). [at] is the sync-point index at which the
    matching thread dies; pass [max_int] to only count sync points.
    [on_crash name now] fires right after the kill (e.g. to mark the
    simulated process dead). *)

val sync_points_seen : t -> int
(** Number of filter-matching sync points indexed so far — after a
    count-only run, the exclusive upper bound for a sweep over [at]. *)

val crashed : t -> (string * int) list
(** [(thread name, sync-point index)] for every injected crash, in
    order. *)

(** Substrate instance for functors over {!Platform.Sync_intf.S}.
    All operations except [mutex] and [chan] (pure constructors) must
    be called from inside a running simulation. *)
module Sync : Platform.Sync_intf.S
