(** Execution-substrate abstraction.

    Every concurrent component in this project (the store's critical
    sections, the socket transport, the baseline server, the YCSB
    runner) is a functor over {!S} so the same code runs in two modes:

    - {!Real_sync}: genuine OS threads, wall-clock time — used by the
      runnable examples and the interactive binaries;
    - [Vm.Sync]: simulated threads on the virtual-time machine — used
      by the benchmark harness to reproduce the paper's multicore
      results deterministically on this single-core box.

    [advance] is the bridge between the two: store code calls it with
    the modeled CPU cost (ns) of the work it just did. In real mode it
    is a no-op (the work itself took real time); in VM mode it advances
    the simulated thread's clock, which is what contention and
    throughput are computed from. *)

module type S = sig
  (** {1 Time and modeled cost} *)

  val advance : int -> unit
  (** Charge the calling thread [ns] nanoseconds of CPU work. *)

  val now_ns : unit -> int
  (** Monotonic time: wall-clock ns in real mode, virtual ns in VM mode. *)

  val sleep_ns : int -> unit
  (** Block (without consuming CPU in VM mode) for [ns]. *)

  (** {1 Threads} *)

  type thread

  val spawn : ?name:string -> (unit -> unit) -> thread
  val join : thread -> unit

  val self_id : unit -> int
  (** Small integer identifying the calling thread; stable for its
      lifetime and distinct among live threads. *)

  val yield : unit -> unit

  (** {1 Mutual exclusion}

      Mutexes here model the PTHREAD_PROCESS_SHARED locks of the paper:
      any simulated process may create and take them. *)

  type mutex

  val mutex : ?cls:string -> unit -> mutex
  (** [cls] is an optional lock-class label consumed by diagnostic
      wrappers (see {!Lockdep}): mutexes sharing a class are expected
      to be acquired in a consistent global order relative to other
      classes. Plain substrates ignore it. *)

  val lock : mutex -> unit
  val unlock : mutex -> unit

  (** {1 Bounded FIFO channels}

      The building block for the socket transport and the server's
      per-worker event queues. *)

  type 'a chan

  exception Closed

  val chan : ?cap:int -> unit -> 'a chan
  (** [cap] defaults to a large value (effectively unbounded). *)

  val send : 'a chan -> 'a -> unit
  (** Blocks while the channel is full. Raises {!Closed} if closed. *)

  val recv : 'a chan -> 'a
  (** Blocks while the channel is empty. Raises {!Closed} once the
      channel is closed and drained. *)

  val try_recv : 'a chan -> 'a option
  (** Non-blocking receive; [None] when empty. Raises {!Closed} once
      the channel is closed and drained. *)

  val close : 'a chan -> unit
end
