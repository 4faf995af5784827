(** {!Sync_intf.S} over real OS threads and wall-clock time.

    Used by the runnable examples and binaries. [advance] is a no-op:
    real work takes real time. *)

let advance (_ns : int) = ()

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let sleep_ns ns = if ns > 0 then Thread.delay (float_of_int ns /. 1e9)

type thread = Thread.t

(* The child runs under the spawner's machine, as a Vm thread does. *)
let spawn ?name:_ f = Thread.create (Machine.carry f) ()

let join = Thread.join

let self_id () = Thread.id (Thread.self ())

let yield = Thread.yield

type mutex = Mutex.t

let mutex ?cls:_ () = Mutex.create ()

let lock = Mutex.lock

let unlock = Mutex.unlock

type 'a chan = {
  queue : 'a Queue.t;
  cap : int;
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

exception Closed

let chan ?(cap = max_int) () =
  { queue = Queue.create (); cap; m = Mutex.create ();
    not_empty = Condition.create (); not_full = Condition.create ();
    closed = false }

let send c v =
  Mutex.lock c.m;
  let rec wait () =
    if c.closed then begin Mutex.unlock c.m; raise Closed end;
    if Queue.length c.queue >= c.cap then begin
      Condition.wait c.not_full c.m;
      wait ()
    end
  in
  wait ();
  Queue.push v c.queue;
  Condition.signal c.not_empty;
  Mutex.unlock c.m

let recv c =
  Mutex.lock c.m;
  let rec wait () =
    match Queue.take_opt c.queue with
    | Some v ->
      Condition.signal c.not_full;
      Mutex.unlock c.m;
      v
    | None ->
      if c.closed then begin Mutex.unlock c.m; raise Closed end;
      Condition.wait c.not_empty c.m;
      wait ()
  in
  wait ()

let try_recv c =
  Mutex.lock c.m;
  let r = Queue.take_opt c.queue in
  (match r with
   | Some _ -> Condition.signal c.not_full
   | None -> if c.closed then begin Mutex.unlock c.m; raise Closed end);
  Mutex.unlock c.m;
  r

let close c =
  Mutex.lock c.m;
  c.closed <- true;
  Condition.broadcast c.not_empty;
  Condition.broadcast c.not_full;
  Mutex.unlock c.m
