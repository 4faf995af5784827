module Config = struct
  type t = {
    cores : int;
    smt : int;
    smt_throughput : float;
    pressure_alpha : float;
    (** per-thread slowdown from cache/memory contention once the
        machine is oversubscribed: CPI multiplier grows linearly up to
        [1 + pressure_alpha] as runnable threads go from [cores] to
        [cores * (1 + pressure_span)] *)
    pressure_span : float;
    pressure_start : float;
    (** fraction of [cores] at which contention begins (memory-bound
        loads saturate the memory system before every core is busy) *)
  }

  let default =
    { cores = 10; smt = 2; smt_throughput = 1.2; pressure_alpha = 0.0;
      pressure_span = 1.0; pressure_start = 1.0 }

  let single_core =
    { cores = 1; smt = 1; smt_throughput = 1.0; pressure_alpha = 0.0;
      pressure_span = 1.0; pressure_start = 1.0 }
end

type state = Runnable | Blocked | Finished

type vthread = {
  tid : int;
  vname : string;
  table : Tls.table;
  mutable clock : int;
  mutable state : state;
  mutable join_waiters : (int -> unit) list;
  mutable held : vmutex list;
  (* vmutexes currently owned — consulted for robust release when the
     thread is crashed at a kill site *)
}

and vmutex = {
  mutable owner : int; (* tid, or -1 when free *)
  lock_waiters : (int * (int -> unit)) Queue.t;
}

exception Deadlock of string

exception Thread_failure of string * exn

exception Closed_chan

(* Waker convention: called exactly once, with the virtual time at which
   the wake-causing event happened; the waker re-schedules its thread. *)

type 'a vchan = {
  q : 'a Queue.t;
  cap : int;
  mutable chan_closed : bool;
  recv_waiters : ('a option -> int -> unit) Queue.t; (* None = closed *)
  send_waiters : (bool -> int -> unit) Queue.t; (* false = closed *)
}

type event = { at : int; prio : int; seq : int; go : unit -> unit }

(* Array-based binary min-heap on (at, prio, seq). [prio] equals [seq]
   in the default deterministic-FIFO mode; under seeded schedule
   exploration it is a random draw, so events tied at the same virtual
   time pop in a seed-determined order. *)
module Event_heap = struct
  type t = { mutable a : event array; mutable n : int }

  let dummy = { at = 0; prio = 0; seq = 0; go = ignore }

  let create () = { a = Array.make 256 dummy; n = 0 }

  let before x y =
    x.at < y.at
    || (x.at = y.at
        && (x.prio < y.prio || (x.prio = y.prio && x.seq < y.seq)))

  let push h ev =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- ev;
    h.n <- h.n + 1;
    let rec up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if before h.a.(i) h.a.(p) then begin
          let tmp = h.a.(i) in
          h.a.(i) <- h.a.(p);
          h.a.(p) <- tmp;
          up p
        end
      end
    in
    up (h.n - 1)

  let min_at h = if h.n = 0 then max_int else h.a.(0).at

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      h.a.(h.n) <- dummy;
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let s = if l < h.n && before h.a.(l) h.a.(i) then l else i in
        let s = if r < h.n && before h.a.(r) h.a.(s) then r else s in
        if s <> i then begin
          let tmp = h.a.(i) in
          h.a.(i) <- h.a.(s);
          h.a.(s) <- tmp;
          down s
        end
      in
      down 0;
      Some top
    end
end

type t = {
  config : Config.t;
  heap : Event_heap.t;
  mutable seq : int;
  mutable next_tid : int;
  mutable live : int;
  mutable runnable : int;
  mutable current : vthread option;
  mutable vnow : int;
  mutable nevents : int;
  mutable fails : (string * exn) list;
  mutable running : bool;
  mutable runnable_weighted : float;  (* integral of runnable over vtime *)
  mutable last_sample : int;
  rng : Random.State.t option;
  (* seeded schedule exploration: when set, same-time events pop in a
     seed-determined order instead of FIFO *)
  preempt_jitter : int;
  (* max extra ns (seeded-random) added per [advance], perturbing which
     thread reaches each synchronization point first *)
  (* Crash-point injection: every visible sync point performed by a
     thread matching [crash_filter] gets a dense index; when the index
     hits [crash_at] the thread is terminated abruptly at that point. *)
  mutable sync_points : int;
  mutable crash_at : int option;
  mutable crash_filter : string -> bool;
  mutable on_crash : (string -> int -> unit) option;
  mutable crashed : (string * int) list;
}

let create ?(config = Config.default) ?sched_seed ?(preempt_jitter = 0) () =
  { config; heap = Event_heap.create (); seq = 0; next_tid = 0; live = 0;
    runnable = 0; current = None; vnow = 0; nevents = 0; fails = [];
    running = false; runnable_weighted = 0.0; last_sample = 0;
    rng = Option.map (fun s -> Random.State.make [| s |]) sched_seed;
    preempt_jitter; sync_points = 0; crash_at = None;
    crash_filter = (fun _ -> true); on_crash = None; crashed = [] }

let set_crash_point t ?(filter = fun _ -> true) ~at ?on_crash () =
  t.crash_filter <- filter;
  t.crash_at <- Some at;
  t.on_crash <- on_crash

let sync_points_seen t = t.sync_points

let crashed t = List.rev t.crashed

let now t = t.vnow

let events_processed t = t.nevents

let failures t = t.fails

let push_event t at go =
  t.seq <- t.seq + 1;
  let prio =
    match t.rng with
    | Some st -> Random.State.bits st
    | None -> t.seq
  in
  Event_heap.push t.heap { at; prio; seq = t.seq; go }

(* CPU capacity model: below [cores] runnable threads each runs at full
   speed; between [cores] and [cores*smt] the extra threads share cores
   with SMT efficiency; beyond that, pure timesharing at peak capacity. *)
let dilate t n =
  let r = t.runnable in
  let c = t.config in
  if n <= 0 then n
  else begin
    let fc = float_of_int c.cores in
    let fr = float_of_int r in
    let cap =
      if r <= c.cores then fr
      else if c.smt <= 1 then fc
      else if r <= c.cores * c.smt then
        fc
        +. float_of_int (r - c.cores)
           *. (c.smt_throughput -. 1.0)
           /. float_of_int (c.smt - 1)
      else fc *. c.smt_throughput
    in
    (* Contention also lengthens every instruction (cache and memory
       system), starting before the cores are even fully busy. *)
    let start = c.pressure_start *. fc in
    let over = Float.max 0.0 (fr -. start) in
    let span = Float.max 1.0 (fc *. c.pressure_span) in
    let pressure =
      1.0 +. (c.pressure_alpha *. Float.min 1.0 (over /. span))
    in
    int_of_float (Float.round (float_of_int n *. fr *. pressure /. cap))
  end

type _ Effect.t +=
  | Advance : int -> unit Effect.t
  | Sleep_until : int -> unit Effect.t
  | Lock : vmutex -> unit Effect.t
  | Unlock : vmutex -> unit Effect.t
  | Send : 'a vchan * 'a -> unit Effect.t
  | Recv : 'a vchan -> 'a Effect.t
  | Try_recv : 'a vchan -> 'a option Effect.t
  | Close_chan : 'a vchan -> unit Effect.t
  | Spawn_in : string option * (unit -> unit) -> vthread Effect.t
  | Join_t : vthread -> unit Effect.t
  | Now_eff : int Effect.t
  | Self_eff : int Effect.t
  | Yield_eff : unit Effect.t

open Effect.Deep

let new_thread t name =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let vname =
    match name with Some n -> n | None -> Printf.sprintf "vthread-%d" tid
  in
  { tid; vname; table = Tls.fresh_table (); clock = 0; state = Runnable;
    join_waiters = []; held = [] }

let set_current t th = t.current <- Some th

let finish t th err =
  th.state <- Finished;
  t.live <- t.live - 1;
  if th.clock > t.vnow then begin
    (* account the runnable load over the stretch this thread ran
       inline past the last event boundary *)
    t.runnable_weighted <-
      t.runnable_weighted +. float_of_int (t.runnable * (th.clock - t.vnow));
    t.vnow <- th.clock
  end;
  t.runnable <- t.runnable - 1;
  (match err with
   | Some e ->
     t.fails <- (th.vname, e) :: t.fails;
     Telemetry.Trace.emit ~at:th.clock ~sev:Telemetry.Trace.Warn ~subsys:"vm"
       (Printf.sprintf "thread %s failed: %s" th.vname (Printexc.to_string e))
   | None -> ());
  let ws = th.join_waiters in
  th.join_waiters <- [];
  List.iter (fun w -> w th.clock) ws

(* Crash-point injection. Called at the entry of every visible sync
   point; returns [true] when this is the designated kill site, in which
   case the thread has been terminated {e abruptly}: its continuation is
   dropped without being resumed or discontinued, so no unwinding
   happens — finalizers do not run and whatever shared state the thread
   was mutating stays exactly as it was, which is precisely the
   SIGKILL-mid-call behaviour the recovery machinery must cope with.
   The only cleanup performed is the kernel's: robust-mutex handoff (a
   real OS does the equivalent for robust futexes), and the pins of its
   open vkey grant windows. Vmutexes owned by the dead thread are
   released, waking the next waiter, so surviving threads do not hang
   on the scheduler-level lock itself — they instead observe the
   half-mutated state it protected. *)
let crash_check t th =
  match t.crash_at with
  | None -> false
  | Some at ->
    if not (t.crash_filter th.vname) then false
    else begin
      let k = t.sync_points in
      t.sync_points <- k + 1;
      if k <> at then false
      else begin
        t.crash_at <- None;
        t.crashed <- (th.vname, k) :: t.crashed;
        (* Stamp the victim's flight-recorder lane before anything
           else: the dying thread is still [t.current], so its lane
           resolves — the post-mortem analyzer's pointer into the
           breadcrumb timelines (a real deployment would do this from
           the fault handler). *)
        Telemetry.Flight.note_death ();
        Telemetry.Trace.emit ~at:th.clock ~sev:Telemetry.Trace.Error
          ~subsys:"vm"
          (Printf.sprintf "crash point %d: %s killed abruptly" k th.vname);
        (* The dying thread is still [t.current], so its TLS resolves:
           flush whatever trace it was inside as aborted — the
           post-mortem view of where the kill landed. *)
        Telemetry.Span.flush_aborted ();
        Pku.Vpkey.thread_died ();
        List.iter
          (fun m ->
            if m.owner = th.tid then begin
              m.owner <- -1;
              match Queue.take_opt m.lock_waiters with
              | Some (tid, w) ->
                m.owner <- tid;
                w th.clock
              | None -> ()
            end)
          th.held;
        th.held <- [];
        finish t th None;
        (match t.on_crash with Some f -> f th.vname th.clock | None -> ());
        true
      end
    end

(* Park the thread and re-run [op] once its clock is globally minimal;
   run [op] inline when it already is (the common, event-free path).
   Under seeded exploration a thread exactly tied with the heap minimum
   may randomly requeue instead, letting the tied peer go first — this
   is where alternative interleavings of same-time synchronization ops
   come from. *)
let resync t th op =
  if Telemetry.Trace.would_log Telemetry.Trace.Debug then
    Telemetry.Trace.emit ~at:th.clock ~sev:Telemetry.Trace.Debug ~subsys:"vm"
      (th.vname ^ ": sync point");
  let min_at = Event_heap.min_at t.heap in
  let inline =
    if th.clock < min_at then true
    else if th.clock > min_at then false
    else
      match t.rng with
      | Some st -> Random.State.bool st
      | None -> true
  in
  if inline then op ()
  else
    push_event t th.clock (fun () ->
      set_current t th;
      op ())

(* Unblock [th], folding the waker time [at] into its clock, and run
   [resume] as a fresh scheduler event. *)
let wake t th at resume =
  th.clock <- max th.clock at;
  th.state <- Runnable;
  t.runnable <- t.runnable + 1;
  push_event t th.clock (fun () ->
    set_current t th;
    resume ())

let block t th =
  th.state <- Blocked;
  t.runnable <- t.runnable - 1

let rec handler : 'a. t -> vthread -> ('a, unit) Effect.Deep.handler =
  fun t th ->
  { retc = (fun _ -> finish t th None);
    exnc = (fun e -> finish t th (Some e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Advance n ->
          Some
            (fun (k : (a, unit) continuation) ->
              if crash_check t th then ()
              else begin
                th.clock <- th.clock + dilate t n;
                (match t.rng with
                 | Some st when t.preempt_jitter > 0 ->
                   th.clock <-
                     th.clock + Random.State.int st (t.preempt_jitter + 1)
                 | _ -> ());
                continue k ()
              end)
        | Now_eff -> Some (fun k -> continue k th.clock)
        | Self_eff -> Some (fun k -> continue k th.tid)
        | Yield_eff ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
                push_event t th.clock (fun () ->
                  set_current t th;
                  continue k ()))
        | Sleep_until at ->
          Some
            (fun k ->
              if crash_check t th then ()
              else begin
                (* Sleeping threads consume no CPU: leave the runnable
                   count while parked. *)
                th.clock <- max th.clock at;
                block t th;
                push_event t th.clock (fun () ->
                  th.state <- Runnable;
                  t.runnable <- t.runnable + 1;
                  set_current t th;
                  continue k ())
              end)
        | Lock m ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
                resync t th (fun () ->
                  if m.owner < 0 then begin
                    m.owner <- th.tid;
                    th.held <- m :: th.held;
                    continue k ()
                  end
                  else begin
                    block t th;
                    Queue.push
                      ( th.tid,
                        fun at ->
                          wake t th at (fun () ->
                            (* A contended acquisition pays the
                               cache-line handoff. *)
                            th.clock <-
                              th.clock
                              + Platform.Cost_model.current.lock_handoff;
                            th.held <- m :: th.held;
                            continue k ()) )
                      m.lock_waiters
                  end))
        | Unlock m ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
                resync t th (fun () ->
                  if m.owner <> th.tid then
                    discontinue k
                      (Invalid_argument "Vm.Sync.unlock: not the owner")
                  else begin
                    m.owner <- -1;
                    th.held <- List.filter (fun m' -> m' != m) th.held;
                    (match Queue.take_opt m.lock_waiters with
                     | Some (tid, w) ->
                       (* Direct handoff: no barging past a waiter. *)
                       m.owner <- tid;
                       w th.clock
                     | None -> ());
                    continue k ()
                  end))
        | Send (c, v) ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
              resync t th (fun () ->
                if c.chan_closed then discontinue k Closed_chan
                else
                  match Queue.take_opt c.recv_waiters with
                  | Some w ->
                    w (Some v) th.clock;
                    continue k ()
                  | None ->
                    if Queue.length c.q < c.cap then begin
                      Queue.push v c.q;
                      continue k ()
                    end
                    else begin
                      block t th;
                      Queue.push
                        (fun ok at ->
                          if ok then
                            wake t th at (fun () ->
                              (* Deliver like a fresh send: a receiver
                                 may have parked while we waited, and
                                 the waiters-imply-empty-queue
                                 invariant must hold. *)
                              (match Queue.take_opt c.recv_waiters with
                               | Some w -> w (Some v) th.clock
                               | None -> Queue.push v c.q);
                              continue k ())
                          else
                            wake t th at (fun () ->
                              discontinue k Closed_chan))
                        c.send_waiters
                    end))
        | Recv c ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
              resync t th (fun () ->
                match Queue.take_opt c.q with
                | Some v ->
                  (match Queue.take_opt c.send_waiters with
                   | Some w -> w true th.clock
                   | None -> ());
                  continue k v
                | None ->
                  if c.chan_closed then discontinue k Closed_chan
                  else begin
                    block t th;
                    Queue.push
                      (fun vo at ->
                        match vo with
                        | Some v -> wake t th at (fun () -> continue k v)
                        | None ->
                          wake t th at (fun () -> discontinue k Closed_chan))
                      c.recv_waiters
                  end))
        | Try_recv c ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
              resync t th (fun () ->
                match Queue.take_opt c.q with
                | Some v ->
                  (match Queue.take_opt c.send_waiters with
                   | Some w -> w true th.clock
                   | None -> ());
                  continue k (Some v)
                | None ->
                  if c.chan_closed then discontinue k Closed_chan
                  else continue k None))
        | Close_chan c ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
              resync t th (fun () ->
                c.chan_closed <- true;
                Queue.iter (fun w -> w None th.clock) c.recv_waiters;
                Queue.clear c.recv_waiters;
                Queue.iter (fun w -> w false th.clock) c.send_waiters;
                Queue.clear c.send_waiters;
                continue k ()))
        | Spawn_in (name, body) ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
              resync t th (fun () ->
                let child = new_thread t name in
                child.clock <- th.clock;
                t.live <- t.live + 1;
                t.runnable <- t.runnable + 1;
                push_event t child.clock (fun () ->
                  set_current t child;
                  match_with body () (handler t child));
                continue k child))
        | Join_t target ->
          Some
            (fun k ->
              if crash_check t th then ()
              else
              resync t th (fun () ->
                if target.state = Finished then begin
                  th.clock <- max th.clock target.clock;
                  continue k ()
                end
                else begin
                  block t th;
                  target.join_waiters <-
                    (fun at -> wake t th at (fun () -> continue k ()))
                    :: target.join_waiters
                end))
        | _ -> None)
  }

let spawn t ?name body =
  let th = new_thread t name in
  t.live <- t.live + 1;
  t.runnable <- t.runnable + 1;
  if t.running then
    (* From inside a simulation, prefer [Sync.spawn]; this path exists
       for completeness and starts the child at the global floor. *)
    th.clock <- t.vnow;
  push_event t th.clock (fun () ->
    set_current t th;
    match_with body () (handler t th));
  th

let blocked_names t =
  (* The heap is empty, so every live thread is parked in some waiter
     queue; we only know them through our bookkeeping of [current]
     having spawned them, so report the count. *)
  Printf.sprintf "%d thread(s) blocked with no runnable peer" t.live

let run ?(raise_on_failure = true) t =
  if t.running then invalid_arg "Vm.run: already running";
  t.running <- true;
  let fallback = Tls.fresh_table () in
  Tls.install_provider (fun () ->
    match t.current with Some th -> th.table | None -> fallback);
  (* While the simulation runs, the layers below the [SYNC] functors
     read the running virtual thread's clock and charge it. A charge is
     an [Advance]: [Advance 0] runs the crash check without charging
     any virtual time ([dilate] passes 0 through), which is the
     zero-cost sync point that tearable telemetry publishes ask for.
     Host threads and scheduler-context code have no handler; for them
     a charge is a no-op. *)
  let prev_env =
    Telemetry.Control.install
      { now = (fun () ->
            match t.current with Some th -> th.clock | None -> t.vnow);
        charge = (fun n ->
            try Effect.perform (Advance n) with Effect.Unhandled _ -> ()) }
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Control.restore prev_env;
      Tls.remove_provider ();
      t.running <- false)
    (fun () ->
      let rec loop () =
        match Event_heap.pop t.heap with
        | None ->
          if t.live > 0 then begin
            Telemetry.Trace.emit ~at:t.vnow ~sev:Telemetry.Trace.Error
              ~subsys:"vm" (blocked_names t);
            raise (Deadlock (blocked_names t))
          end
        | Some ev ->
          if ev.at > t.vnow then begin
            t.runnable_weighted <-
              t.runnable_weighted
              +. (float_of_int (t.runnable * (ev.at - t.vnow)));
            t.vnow <- ev.at
          end;
          t.nevents <- t.nevents + 1;
          ev.go ();
          loop ()
      in
      loop ();
      (* The global clock ends at the last thread's private clock. *)
      (match t.current with
       | Some th -> if th.clock > t.vnow then t.vnow <- th.clock
       | None -> ());
      if raise_on_failure then
        match List.rev t.fails with
        | (n, e) :: _ -> raise (Thread_failure (n, e))
        | [] -> ())

module Sync = struct
  let advance n = if n > 0 then Effect.perform (Advance n)

  let now_ns () = Effect.perform Now_eff

  let sleep_ns ns =
    if ns > 0 then
      Effect.perform (Sleep_until (Effect.perform Now_eff + ns))

  type thread = vthread

  let spawn ?name f = Effect.perform (Spawn_in (name, f))

  let join th = Effect.perform (Join_t th)

  let self_id () = Effect.perform Self_eff

  let yield () = Effect.perform Yield_eff

  type mutex = vmutex

  let mutex ?cls:_ () = { owner = -1; lock_waiters = Queue.create () }

  let lock m = Effect.perform (Lock m)

  let unlock m = Effect.perform (Unlock m)

  type 'a chan = 'a vchan

  exception Closed = Closed_chan

  let chan ?(cap = max_int) () =
    { q = Queue.create (); cap; chan_closed = false;
      recv_waiters = Queue.create (); send_waiters = Queue.create () }

  let send c v = Effect.perform (Send (c, v))

  let recv c = Effect.perform (Recv c)

  let try_recv c = Effect.perform (Try_recv c)

  let close c = Effect.perform (Close_chan c)
end

let mean_runnable t =
  if t.vnow = 0 then 0.0 else t.runnable_weighted /. float_of_int t.vnow
