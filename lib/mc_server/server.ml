(** The baseline: memcached as a socket server.

    The process owns a private slab-backed store; an acceptor thread
    hands incoming connections to worker threads round-robin (as
    memcached's dispatcher does); each worker runs an event loop over
    its own queue, parsing requests, executing them against the store,
    and writing replies. Every request crosses the kernel twice in
    each direction — the overhead the paper eliminates. *)

module P = Mc_protocol.Types
module CM = Platform.Cost_model

type protocol = Ascii | Binary

type config = {
  workers : int;
  protocol : protocol;
  mem_limit : int;
  store : Mc_core.Store.config;
}

let default_config =
  { workers = 4; protocol = Binary; mem_limit = 64 * 1024 * 1024;
    store =
      { Mc_core.Store.default_config with
        lru_by_size_class = true (* original memcached: LRU per slab class *) } }

(** Shared-ring mode: geometry of the per-connection ring pair. The
    drain policy has no knobs: the worker drains whatever a ring holds
    as soon as it sees it, so batches form only from requests that
    piled up while the worker was busy. *)
type ring_config = {
  r_slots : int;  (** slots per ring *)
  r_slot_bytes : int;  (** bytes per slot (24 of them header) *)
}

let default_ring_config = { r_slots = 64; r_slot_bytes = 256 }

(* Per-connection drain counters, owned by the connection's worker;
   the scalar fields feed `stats rings` without locking. *)
type wstate = {
  mutable w_occ : int;  (** occupancy at the last peek, messages *)
  mutable w_drains : int;
  mutable w_ops : int;
}

let fresh_wstate () = { w_occ = 0; w_drains = 0; w_ops = 0 }

type wrapper = { wrap : 'a. ops:int -> (unit -> 'a) -> 'a }
(** Runs each batch execution; [ops] is the number of operations the
    thunk will execute. The hybrid server passes the Hodor batch
    trampoline here, so one crossing covers the whole batch. The
    record makes the field polymorphic: the same wrapper must serve
    whatever result type the executor thunk produces. *)

let default_wrapper = { wrap = (fun ~ops:_ f -> f ()) }

(* Whether this thread is inside a ring drain — the ground
   truth the crash sweep compares against the flight recorder's
   Ring_drain_begin/end breadcrumbs. Module-level for the same reason
   as the store's held-stripe list: the drain spans functor
   boundaries (server -> executor -> store) and is a property of the
   thread, not of any one instantiation. *)
let in_ring_drain : bool ref Tls.key = Tls.new_key (fun () -> ref false)

let in_ring_drain_now () = !(Tls.get in_ring_drain)

(* Generic over the store's memory/allocator so the same server can
   front a private slab store (the classic baseline) or a shared Ralloc
   heap (the hybrid deployment of the paper's §6: remote clients over
   sockets, local clients through Hodor, one store). *)
module Make_generic
    (M : Mc_core.Memory_intf.MEMORY)
    (A : Mc_core.Memory_intf.ALLOCATOR)
    (S : Platform.Sync_intf.S)
    (T : module type of Transport.Sock.Make (S)) =
struct
  module E = Executor.Make (M) (A) (S)
  module Store = E.Store

  (** Ring mode's tie to the heap owner: the library (Plib) carves ring
      pairs out of its shared heap, seals them under per-connection
      vkeys, and records them in the ring directory for recovery; the
      server just calls these at accept/teardown. *)
  type ring_ctx = {
    rc_cfg : ring_config;
    rc_alloc : int -> T.ring_attach option;
    (** cid -> sealed ring pair; [None] when the directory is full *)
    rc_free : int -> T.ring_attach -> unit;
  }

  type t = {
    cfg : config;
    store : Store.t;
    listener : T.listener;
    inboxes : T.message S.chan array;
    conns : (int, T.conn) Hashtbl.t;
    conns_lock : Mutex.t;
    tenants : Mc_core.Tenant.t option;
    (** the deployment's tenant registry: tenant connections bind to
        its slots, and it serves `stats tenants` / joins `stats reset` *)
    slot_of : (int, int) Hashtbl.t;
    (** connection-bound tenant identity (cid → registry slot),
        resolved once at accept time; also guarded by [conns_lock] *)
    assign_tenant : int -> string option;
    surfaces : Executor.surfaces;
    (** the deployment's own `stats` surfaces, plus this server's ring
        rows when it runs the ring transport *)
    wrap : wrapper;
    (** runs each batch execution; the hybrid server passes the Hodor
        batch trampoline here so worker threads gain access rights to
        the shared heap the way any other client of the library does —
        one crossing per drained batch, not per request *)
    ring_ctx : ring_ctx option;
    ring_conns : (int, T.conn) Hashtbl.t array;
    (** per-worker ring connections (guarded by [conns_lock]) *)
    ring_gen : int Atomic.t;
    (** bumped under [conns_lock] whenever a [ring_conns] set changes *)
    ring_states : (int, wstate) Hashtbl.t;
    (** cid -> drain counters (created/removed under
        [conns_lock]; the scalar fields are the owning worker's) *)
    mutable threads : S.thread list;
  }

  let parse_batch cfg payload =
    match cfg.protocol with
    | Ascii -> Mc_protocol.Ascii.parse_batch payload
    | Binary -> Mc_protocol.Binary.parse_batch payload

  let encode_reply cfg (cmd : P.command) (resp : P.response) =
    match cfg.protocol with
    | Ascii -> Mc_protocol.Ascii.encode_response resp
    | Binary -> Mc_protocol.Binary.encode_reply ~for_cmd:cmd resp

  let find_conn t cid =
    Mutex.lock t.conns_lock;
    let c = Hashtbl.find_opt t.conns cid in
    Mutex.unlock t.conns_lock;
    match c with
    | Some c -> c
    | None -> failwith "worker: message from unregistered connection"

  let drop_conn t cid =
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns cid;
    Hashtbl.remove t.slot_of cid;
    Mutex.unlock t.conns_lock

  let buffer_of buffers cid =
    match Hashtbl.find_opt buffers cid with
    | Some b -> b
    | None ->
      let b = Buffer.create 256 in
      Hashtbl.add buffers cid b;
      b

  (* ---- the drain body both transports share -------------------------- *)

  (* Parse every complete request buffered for a connection and consume
     its bytes. [`Wait]: nothing complete yet (an empty buffer or an
     incomplete prefix) — wait for the next chunk. A quit closes the
     connection: everything before it still executes, anything after it
     is discarded with the connection (what a socket close does to
     pipelined bytes). *)
  let parse_buffered t buf =
    let data = Buffer.contents buf in
    if String.length data = 0 then `Wait
    else
      Telemetry.Span.around ~phase:"parse" @@ fun () ->
      match parse_batch t.cfg data with
      | [], _ -> `Wait
      | cmds, consumed ->
        Buffer.clear buf;
        Buffer.add_substring buf data consumed (String.length data - consumed);
        S.advance (List.length cmds * CM.current.proto_parse);
        let rec split acc = function
          | [] -> `Cmds (List.rev acc, false)
          | P.Quit :: _ -> `Cmds (List.rev acc, true)
          | c :: tl -> split (c :: acc) tl
        in
        split [] cmds
      | exception P.Need_more_data -> `Wait
      | exception P.Parse_error m -> `Garbage m

  (* Runs inside the crossing: the executor's pipeline, under the
     connection's tenant binding — the registry lives in the protected
     heap. *)
  let execute t cid cmds =
    Mutex.lock t.conns_lock;
    let slot = Hashtbl.find_opt t.slot_of cid in
    Mutex.unlock t.conns_lock;
    E.pipeline ?tenants:t.tenants ?slot ~surfaces:t.surfaces ~batch:true
      t.store cmds

  (* One output buffer for the whole batch, one send. *)
  let send_replies t conn pairs =
    Telemetry.Span.around ~phase:"reply" (fun () ->
      let out = Buffer.create 256 in
      List.iter
        (fun (cmd, resp) ->
          if not (P.suppress_reply cmd resp) then begin
            S.advance CM.current.proto_pack;
            Buffer.add_string out (encode_reply t.cfg cmd resp)
          end)
        pairs;
      if Buffer.length out > 0 then T.server_send conn (Buffer.contents out))

  (* The tail of every drain, socket or ring: reply to what ran, or drop
     the garbage and report it, and settle the trace [root]. Leftover
     bytes go through the socket drain's re-entry, which an empty
     buffer skips. [`Quit]: the caller closes the connection. *)
  let rec settle t conn cid buf root = function
    | `Pairs (pairs, quit) ->
      send_replies t conn pairs;
      Telemetry.Span.finish root;
      if quit then `Quit else drain t conn cid buf
    | `Garbage m ->
      Buffer.clear buf;
      S.advance CM.current.proto_pack;
      T.server_send conn (encode_reply t.cfg (P.Invalid m) (P.Client_error m));
      Telemetry.Span.drop root;
      `Open
    | `Wait ->
      Telemetry.Span.drop root;
      `Open

  (* A socket read delivers an arbitrary byte chunk — possibly a
     fragment of one request, possibly several pipelined requests — so
     each connection keeps a reassembly buffer. A drain takes {e every}
     complete request out of it at once: one parse pass, one wrapped (=
     one protection crossing) batch execution with grouped stripe
     locking, one reply buffer, one send. The trace is backdated to
     [enq_at], the socket enqueue stamp of the oldest chunk served, so
     the time a request sat in the worker's queue is its own [queue]
     phase; re-entries pass none. *)
  and drain ?enq_at t conn cid buf =
    if Buffer.length buf = 0 then `Open
    else
      let root =
        Telemetry.Probe.ingress ?queued_since:enq_at ~op:"srv.batch" ()
      in
      settle t conn cid buf root
        (match parse_buffered t buf with
         | `Cmds ([], quit) -> `Pairs ([], quit)
         | `Cmds (cmds, quit) ->
           `Pairs
             ( t.wrap.wrap ~ops:(List.length cmds) (fun () ->
                 execute t cid cmds),
               quit )
         | (`Wait | `Garbage _) as o -> o)

  (* Each worker owns an event loop over its queue. *)
  let worker_loop t inbox =
    let buffers : (int, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
    let rec loop () =
      match T.worker_drain inbox with
      | exception S.Closed -> ()
      | msgs ->
        (* Append every drained chunk to its connection's buffer first,
           so pipelined requests split across chunks reassemble before
           the batch runs; then drain each touched connection once. *)
        let touched : (int * int) list ref = ref [] in
        List.iter
          (fun { T.m_cid = cid; m_payload = payload; m_at = at } ->
            Buffer.add_string (buffer_of buffers cid) payload;
            (* first chunk per cid carries the earliest enqueue stamp
               (the inbox is FIFO) — that is the trace's backdate *)
            if not (List.mem_assoc cid !touched) then
              touched := (cid, at) :: !touched)
          msgs;
        List.iter
          (fun (cid, at) ->
            let conn = find_conn t cid in
            match drain ~enq_at:at t conn cid (buffer_of buffers cid) with
            | `Open -> ()
            | `Quit ->
              T.close_conn conn;
              drop_conn t cid;
              Hashtbl.remove buffers cid)
          (List.rev !touched);
        loop ()
    in
    loop ()

  (* ---- shared-ring mode ---------------------------------------------- *)

  let release_ring_conn t wi conn =
    let cid = conn.T.cid in
    (match (t.ring_ctx, T.rings_of conn) with
     | Some rc, Some ra -> rc.rc_free cid ra
     | _ -> ());
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.ring_conns.(wi) cid;
    Hashtbl.remove t.ring_states cid;
    Atomic.incr t.ring_gen;
    Mutex.unlock t.conns_lock;
    drop_conn t cid

  (* One drain = one wrapped execution = one protection crossing. The
     ring consume (copy-in) runs *inside* the crossing, like the
     paper's copy_in idiom — the bytes leave the client-writable pages
     before the parser trusts them — and the parse + grouped execution
     of everything the ring held rides the same crossing; the rest is
     the socket drain's tail. [`Bounce]: forged slot headers. *)
  let ring_drain t conn st buf ~msgs ~first_stamp =
    let cid = conn.T.cid in
    let root =
      Telemetry.Probe.ingress ~queued_since:first_stamp ~op:"srv.ring" ()
    in
    let outcome =
      t.wrap.wrap ~ops:(max 1 msgs) (fun () ->
        (* An abrupt kill leaves flag and records saying mid-drain. *)
        Telemetry.Probe.ring_drain ~draining:(Tls.get in_ring_drain) ~conn:cid
          ~msgs
        @@ fun () ->
        match T.ring_consume conn with
        | Error _ -> `Forged
        | Ok chunks -> (
          List.iter (fun (m, _stamp) -> Buffer.add_string buf m) chunks;
          match parse_buffered t buf with
          | `Wait -> `Pairs ([], false)
          | `Cmds (cmds, quit) -> `Pairs (execute t cid cmds, quit)
          | `Garbage _ as o -> o))
    in
    match outcome with
    | `Forged ->
      Telemetry.Span.drop root;
      `Bounce
    | `Garbage _ as o -> settle t conn cid buf root o
    | `Pairs _ as o ->
      st.w_drains <- st.w_drains + 1;
      st.w_ops <- st.w_ops + max 1 msgs;
      settle t conn cid buf root o

  (* The ring worker's event loop. Instead of blocking on the socket
     queue it polls its connections' submission rings (shared-memory
     header reads, no syscall) and drains every ring that holds
     anything, at once: the loop is work-conserving, so a batch is
     exactly what piled up while the worker was busy and a lone
     request never waits for company. When every ring is empty the
     worker naps one context-switch interval, which lets a backlog
     gather into the next batch, and looks again. If that pass is empty
     too it keeps polling on the [T.backoff_waits] schedule for
     [syscall_send + syscall_select] more, so the whole idle window is
     what a park adds to the next request: the client's doorbell
     syscall, the worker's context switch, and its select on wake.
     Only a pass after that window that still finds nothing arms every
     ring for a doorbell, re-checks, and parks. *)
  let ring_worker_loop t wi inbox =
    let buffers : (int, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
    (* the worker's connections in cid order, with their drain
       counters; re-read only after the acceptor or a teardown changed
       some worker's set, not on every pass of the idle window *)
    let cached = ref (-1, []) in
    let my_conns () =
      let gen = Atomic.get t.ring_gen in
      if fst !cached <> gen then begin
        Mutex.lock t.conns_lock;
        let l =
          Hashtbl.fold
            (fun cid c acc -> (c, Hashtbl.find t.ring_states cid) :: acc)
            t.ring_conns.(wi) []
        in
        Mutex.unlock t.conns_lock;
        cached :=
          (gen, List.sort (fun (a, _) (b, _) -> compare a.T.cid b.T.cid) l)
      end;
      snd !cached
    in
    (* A bounce kills the connection for forged slot headers. Its rings
       were private to its vkey, so nothing it stomped can have reached
       another connection or the library's own state. *)
    let close ?(bounce = false) conn =
      if bounce then T.ring_bounce conn else T.close_conn conn;
      release_ring_conn t wi conn;
      Hashtbl.remove buffers conn.T.cid
    in
    (* the waits of one idle window: the nap, then the backoff *)
    let idle_waits () =
      CM.current.ctx_switch
      :: T.backoff_waits
           ~window:(CM.current.syscall_send + CM.current.syscall_select)
    in
    let rec loop waits =
      let acted = ref false in
      List.iter
        (fun (conn, st) ->
          match T.ring_pending conn with
          | Error _ ->
            close ~bounce:true conn;
            acted := true
          | Ok None -> st.w_occ <- 0
          | Ok (Some p) -> (
            st.w_occ <- p.Transport.Ring.p_msgs;
            acted := true;
            T.ring_arm conn false;
            match
              ring_drain t conn st (buffer_of buffers conn.T.cid)
                ~msgs:p.Transport.Ring.p_msgs
                ~first_stamp:p.Transport.Ring.p_first_stamp
            with
            | `Open -> ()
            | `Quit -> close conn
            | `Bounce -> close ~bounce:true conn))
        (my_conns ());
      match waits with
      | _ when !acted -> loop (idle_waits ())
      | w :: rest ->
        S.sleep_ns w;
        loop rest
      | [] ->
        (* idle: arm every ring, re-check (the produce-then-check-armed
           protocol makes this race-free), then park on the doorbell *)
        let conns = List.map fst (my_conns ()) in
        List.iter (fun c -> T.ring_arm c true) conns;
        let ready =
          List.exists
            (fun c ->
              match T.ring_pending c with
              | Ok None -> false
              | Ok (Some _) | Error _ -> true)
            conns
        in
        if ready then begin
          List.iter (fun c -> T.ring_arm c false) conns;
          loop (idle_waits ())
        end
        else begin
          S.advance CM.current.syscall_select;
          match S.recv inbox with
          | exception S.Closed -> ()
          | _doorbell ->
            T.ctx_switch_penalty ();
            let rec clear () =
              match S.try_recv inbox with
              | Some _ -> clear ()
              | None -> ()
              | exception S.Closed -> ()
            in
            clear ();
            List.iter (fun c -> T.ring_arm c false) conns;
            loop (idle_waits ())
        end
    in
    loop (idle_waits ())

  (* The registry slot a new connection is bound to. A name the
     registry does not hold is an [Error]: serving it would open an
     unmetered namespace that `stats tenants` never lists. The lookup
     is host-side, at accept, outside any crossing. *)
  let resolve_tenant t cid =
    match t.assign_tenant cid with
    | None -> Ok None
    | Some name -> (
      let find reg =
        Shm.Region.kernel_mode (fun () -> Mc_core.Tenant.find reg name)
      in
      match Option.bind t.tenants find with
      | Some slot -> Ok (Some slot)
      | None -> Error name)

  let acceptor_loop t =
    let next = ref 0 in
    let refuse cid why =
      Telemetry.Trace.emit ~sev:Telemetry.Trace.Warn ~subsys:"server"
        (Printf.sprintf "refused conn %d: %s" cid why);
      false
    in
    let register conn =
      let cid = conn.T.cid in
      match resolve_tenant t cid with
      | Error name ->
        refuse cid (Printf.sprintf "%S is not a registered tenant" name)
      | Ok slot -> (
        match Option.map (fun rc -> rc.rc_alloc cid) t.ring_ctx with
        | Some None ->
          Telemetry.Counters.incr Telemetry.Counters.Id.ring_refused;
          refuse cid "the ring directory is full"
        | rings ->
          Option.iter
            (fun ra ->
              T.attach_rings conn ra;
              (* the worker may already be parked: the first send must
                 find the doorbell armed *)
              T.ring_arm conn true)
            (Option.join rings);
          Mutex.lock t.conns_lock;
          Hashtbl.replace t.conns cid conn;
          (match t.ring_ctx with
           | Some _ ->
             Hashtbl.replace t.ring_conns.(!next mod t.cfg.workers) cid conn;
             Hashtbl.replace t.ring_states cid (fresh_wstate ());
             Atomic.incr t.ring_gen
           | None -> ());
          (* bind the tenant identity before the client is released, so
             no request can race ahead of its own scoping *)
          Option.iter (Hashtbl.replace t.slot_of cid) slot;
          Mutex.unlock t.conns_lock;
          true)
    in
    let rec loop () =
      match
        T.accept ~register t.listener
          ~inbox:t.inboxes.(!next mod t.cfg.workers)
      with
      | _conn ->
        incr next;
        loop ()
      | exception S.Closed -> ()
    in
    loop ()

  (* A ring server serves its geometry in `stats settings` and each
     connection's live occupancy and drain figures in `stats rings`,
     on top of what the deployment already answers there. *)
  let ring_surfaces (surfaces : Executor.surfaces) rc ~lock ~states =
    { surfaces with
      settings =
        (fun () ->
          surfaces.settings ()
          @ [ ("ring_slots", string_of_int rc.rc_cfg.r_slots);
              ("ring_slot_bytes", string_of_int rc.rc_cfg.r_slot_bytes) ]);
      rings =
        (fun () ->
          Mutex.lock lock;
          let sts = Hashtbl.fold (fun cid st acc -> (cid, st) :: acc) states [] in
          Mutex.unlock lock;
          surfaces.rings ()
          @ List.concat_map
              (fun (cid, st) ->
                let tag k = Printf.sprintf "rings:conn%d:%s" cid k in
                [ (tag "occupancy", string_of_int st.w_occ);
                  (tag "drains", string_of_int st.w_drains);
                  (tag "ops", string_of_int st.w_ops) ])
              (List.sort compare sts)) }

  (* [prebuilt] lets benchmark sweeps reuse one loaded store across
     many server incarnations (the dataset outlives the threads), and
     is how the hybrid deployment hands the shared store in — with its
     tenant registry, when [assign_tenant] binds connections to one,
     and with the [surfaces] its heap owner serves. *)
  let start_with ?(cfg = default_config) ?(wrap = default_wrapper) ?tenants
      ?(assign_tenant = fun _ -> None) ?(surfaces = Executor.baseline_surfaces)
      ?ring_ctx ~store ~name () =
    let listener = T.listen ~name in
    let inboxes = Array.init cfg.workers (fun _ -> S.chan ()) in
    let conns_lock = Mutex.create () and ring_states = Hashtbl.create 16 in
    let surfaces =
      match ring_ctx with
      | None -> surfaces
      | Some rc -> ring_surfaces surfaces rc ~lock:conns_lock ~states:ring_states
    in
    let t =
      { cfg; store; listener; inboxes; conns = Hashtbl.create 64; conns_lock;
        tenants; slot_of = Hashtbl.create 8; assign_tenant; surfaces; wrap;
        ring_ctx;
        ring_conns = Array.init cfg.workers (fun _ -> Hashtbl.create 8);
        ring_gen = Atomic.make 0;
        ring_states; threads = [] }
    in
    let acceptor = S.spawn ~name:(name ^ ".acceptor") (fun () -> acceptor_loop t) in
    let workers =
      List.init cfg.workers (fun i ->
        S.spawn
          ~name:(Printf.sprintf "%s.worker%d" name i)
          (fun () ->
            match ring_ctx with
            | Some _ -> ring_worker_loop t i inboxes.(i)
            | None -> worker_loop t inboxes.(i)))
    in
    t.threads <- acceptor :: workers;
    t

  (* Shut down: refuse new connections, drain workers, close replies. *)
  let stop t =
    T.close_listener t.listener;
    Array.iter S.close t.inboxes;
    List.iter S.join t.threads;
    Mutex.lock t.conns_lock;
    Hashtbl.iter (fun _ c -> T.close_conn c) t.conns;
    Hashtbl.reset t.conns;
    Mutex.unlock t.conns_lock;
    match t.ring_ctx with
    | None -> ()
    | Some rc ->
      Array.iter
        (fun tbl ->
          Hashtbl.iter
            (fun cid c ->
              match T.rings_of c with
              | Some ra -> rc.rc_free cid ra
              | None -> ())
            tbl;
          Hashtbl.reset tbl)
        t.ring_conns;
      Hashtbl.reset t.ring_states

  let store t = t.store
end

(* The classic baseline: a private slab-backed store behind sockets. *)
module Make
    (S : Platform.Sync_intf.S)
    (T : module type of Transport.Sock.Make (S)) =
struct
  include Make_generic (Mc_core.Private_memory) (Mc_core.Slab) (S) (T)

  let start ?(cfg = default_config) ?prebuilt ~name () =
    let store =
      match prebuilt with
      | Some store -> store
      | None ->
        let arena = Mc_core.Private_memory.create ~limit:(2 * cfg.mem_limit) in
        let slab = Mc_core.Slab.create ~arena ~mem_limit:cfg.mem_limit in
        Store.create ~mem:arena ~alloc:slab cfg.store
    in
    start_with ~cfg ~store ~name ()
end

(* The hybrid deployment (§6): the bookkeeping process exposes its
   shared, Hodor-protected store over sockets for remote clients while
   local clients keep calling through trampolines. *)
module Make_hybrid
    (S : Platform.Sync_intf.S)
    (T : module type of Transport.Sock.Make (S)) =
  Make_generic (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (S) (T)
