(** Lock-order validator ("lockdep") over any {!Sync_intf.S}.

    [Make (S)] is itself a {!Sync_intf.S} whose mutexes carry a
    {e lock class} (the [?cls] label given at creation; anonymous
    mutexes each get a singleton class). At every [lock] it checks,
    against the set of locks the calling thread already holds:

    - {b self-deadlock}: re-acquiring a mutex already held;
    - {b same-class order}: two locks of one class (e.g. the store's
      hash stripes) may nest only in increasing creation-rank order —
      the discipline [resize]/[fold_keys] follow by sweeping stripes in
      array index order;
    - {b cross-class order}: each observed nesting [held-class →
      new-class] becomes an edge in a global class graph; an
      acquisition whose class can already reach a held class through
      recorded edges closes a cycle (e.g. item-stripe → LRU in one
      thread, LRU → item-stripe in another) and is flagged even if the
      two threads never actually collide in this run.

    Violations raise {!Violation} at the offending acquire (before
    blocking on the real lock) so the stack points at the bug, and are
    also recorded for post-run inspection via {!violations}.

    The registry is global to the wrapped substrate and guarded by a
    stdlib [Mutex] — never an [S] primitive, so it works identically
    over OS threads and VM fibers (whose effects may not be performed
    while holding it). Call {!reset} between independent tests. *)

exception Violation of string

(* Unsealed: satisfies {!Sync_intf.S} structurally while also exposing
   [reset]/[violations] to the test harness. *)
module Make (S : Sync_intf.S) = struct
  let advance = S.advance
  let now_ns = S.now_ns
  let sleep_ns = S.sleep_ns

  type thread = S.thread

  let spawn = S.spawn
  let join = S.join
  let self_id = S.self_id
  let yield = S.yield

  type mutex = { m : S.mutex; id : int; cls : string; rank : int }

  (* ---- global registry ------------------------------------------- *)

  let reg_lock = Mutex.create ()

  let next_id = ref 0

  (* per-class creation counter: the rank a new mutex of that class gets *)
  let class_ranks : (string, int ref) Hashtbl.t = Hashtbl.create 16

  (* tid -> locks currently held, innermost first *)
  let held : (int, mutex list) Hashtbl.t = Hashtbl.create 64

  (* cls -> set of classes ever acquired while cls was held *)
  let edges : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16

  let violation_log : string list ref = ref []

  let with_reg f =
    Mutex.lock reg_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock reg_lock) f

  let reset () =
    with_reg (fun () ->
      Hashtbl.reset class_ranks;
      Hashtbl.reset held;
      Hashtbl.reset edges;
      violation_log := [])

  let violations () = with_reg (fun () -> List.rev !violation_log)

  (* ---- mutex operations ------------------------------------------ *)

  let mutex ?cls () =
    with_reg (fun () ->
      let id = !next_id in
      incr next_id;
      let cls =
        match cls with Some c -> c | None -> Printf.sprintf "anon#%d" id
      in
      let rank_ref =
        match Hashtbl.find_opt class_ranks cls with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.add class_ranks cls r;
          r
      in
      let rank = !rank_ref in
      incr rank_ref;
      { m = S.mutex ~cls (); id; cls; rank })

  (* Is [dst] reachable from [src] in the recorded nesting graph? *)
  let reaches src dst =
    let seen = Hashtbl.create 8 in
    let rec go c =
      String.equal c dst
      || (not (Hashtbl.mem seen c))
         && begin
           Hashtbl.add seen c ();
           match Hashtbl.find_opt edges c with
           | None -> false
           | Some succ ->
             Hashtbl.fold (fun s () acc -> acc || go s) succ false
         end
    in
    go src

  let check_acquire tid m =
    let hs = Option.value ~default:[] (Hashtbl.find_opt held tid) in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          let msg = Printf.sprintf "lockdep: thread %d: %s" tid msg in
          violation_log := msg :: !violation_log;
          raise (Violation msg))
        fmt
    in
    List.iter
      (fun h ->
        if h.id = m.id then
          fail "self-deadlock on %s[%d] (already held)" m.cls m.rank;
        if String.equal h.cls m.cls && h.rank >= m.rank then
          fail
            "same-class order inversion: acquiring %s[%d] while holding \
             %s[%d]"
            m.cls m.rank h.cls h.rank)
      hs;
    (* Cross-class cycle: would the new edges held→m close a loop? *)
    List.iter
      (fun h ->
        if (not (String.equal h.cls m.cls)) && reaches m.cls h.cls then
          fail
            "lock-order inversion: acquiring class %s while holding %s, \
             but %s -> %s nesting was already observed"
            m.cls h.cls m.cls h.cls)
      hs;
    (* Record the nesting we are about to create. *)
    List.iter
      (fun h ->
        if not (String.equal h.cls m.cls) then begin
          let succ =
            match Hashtbl.find_opt edges h.cls with
            | Some s -> s
            | None ->
              let s = Hashtbl.create 4 in
              Hashtbl.add edges h.cls s;
              s
          in
          if not (Hashtbl.mem succ m.cls) then Hashtbl.add succ m.cls ()
        end)
      hs

  let lock m =
    let tid = self_id () in
    with_reg (fun () -> check_acquire tid m);
    S.lock m.m;
    (* Register held only after the (possibly blocking) acquire, so a
       thread parked on a contended lock is not reported as holding
       it. The ordering check above already ran, so no violation can
       slip through the window. *)
    with_reg (fun () ->
      let hs = Option.value ~default:[] (Hashtbl.find_opt held tid) in
      Hashtbl.replace held tid (m :: hs))

  let unlock m =
    let tid = self_id () in
    with_reg (fun () ->
      let hs = Option.value ~default:[] (Hashtbl.find_opt held tid) in
      if not (List.exists (fun h -> h.id = m.id) hs) then begin
        let msg =
          Printf.sprintf
            "lockdep: thread %d: unlock of %s[%d] which it does not hold"
            tid m.cls m.rank
        in
        violation_log := msg :: !violation_log;
        raise (Violation msg)
      end;
      Hashtbl.replace held tid (List.filter (fun h -> h.id <> m.id) hs));
    S.unlock m.m

  (* ---- channels: passed straight through ------------------------- *)

  type 'a chan = 'a S.chan

  exception Closed = S.Closed

  let chan = S.chan
  let send = S.send
  let recv = S.recv
  let try_recv = S.try_recv
  let close = S.close
end
