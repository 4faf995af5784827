(** Unix-domain-socket model with memcached's event-dispatch shape.

    Architecture mirrors memcached + libevent:
    - a listener accepts connections and the server assigns each to a
      worker thread;
    - a worker owns one event queue; readiness of any of its
      connections lands there (client sends are tagged with the
      connection id), which is what a libevent loop over many sockets
      amounts to;
    - replies flow through a per-connection channel back to the client.

    Costs are charged per syscall from {!Platform.Cost_model}, plus a
    context-switch penalty when a receive actually has to block — the
    dynamics the paper uses to explain the baseline's scaling (§4.1):
    with enough clients, a worker's queue is never empty and the
    select returns without a context switch.

    The same code runs on real threads or on the virtual-time machine
    (functor over {!Platform.Sync_intf.S}). *)

module CM = Platform.Cost_model
module C = Telemetry.Counters

module Make (S : Platform.Sync_intf.S) = struct
  type message = {
    m_cid : int;
    m_payload : string;
    m_at : int;
        (** enqueue stamp ({!S.now_ns} at [client_send]) — lets the
            server backdate a request's trace to when the bytes hit the
            socket, so queueing shows up as its own phase *)
  }

  (** Shared-ring attachment: when a ring-mode server accepts a
      connection it carves a submission/completion ring pair out of the
      shared heap, seals the pages under a per-connection vkey, and
      hangs the pair here. The data path below then dispatches on it —
      sends become ring produces (no syscall unless the consumer is
      parked and wants a doorbell), receives become ring consumes — and
      both {!Core.Socket_client} and the server's drain loop work
      unchanged on either kind of connection. *)
  type ring_attach = {
    ra_sub : Ring.t;  (** client -> server (requests) *)
    ra_comp : Ring.t;  (** server -> client (replies) *)
    ra_vkey : int;  (** seals both rings' pages; conn-private *)
  }

  type conn = {
    cid : int;
    inbox : message S.chan;  (** the owning worker's event queue *)
    reply : string S.chan;
    mutable rings : ring_attach option;
  }

  type listener = {
    l_name : string;
    backlog : (conn option -> unit) S.chan;
    (** connect() parks a resolver here; accept() completes it *)
  }

  exception Connection_closed

  (* --- listener registry (a simulated abstract-socket namespace) --- *)

  (* The machine's socket namespace: two machines never see each
     other's listeners. The key is this application's of {!Make}, so a
     server and its clients share one ([Core.Client.Make]'s [T]). *)
  type registry = { lock : Mutex.t; names : (string, listener) Hashtbl.t }

  let registry_key =
    Machine.new_key (fun () ->
      { lock = Mutex.create (); names = Hashtbl.create 8 })

  let with_registry f =
    let { lock; names } = Machine.get registry_key in
    Mutex.protect lock (fun () -> f names)

  let listen ~name =
    let l = { l_name = name; backlog = S.chan () } in
    with_registry (fun names -> Hashtbl.replace names name l);
    l

  let close_listener l =
    with_registry (fun names -> Hashtbl.remove names l.l_name);
    S.close l.backlog

  let next_cid = Atomic.make 1

  (* Client side: block until the server accepts and assigns a worker. *)
  let connect ~name =
    let l =
      match with_registry (fun names -> Hashtbl.find_opt names name) with
      | Some l -> l
      | None -> failwith ("connect: no listener on " ^ name)
    in
    S.advance (2 * CM.current.syscall_send) (* socket() + connect() *);
    let cell = S.chan ~cap:1 () in
    (try S.send l.backlog (fun c -> S.send cell c)
     with S.Closed -> failwith ("connect: " ^ name ^ " is shut down"));
    match S.recv cell with
    | Some conn -> conn
    | None -> failwith ("connect: " ^ name ^ " refused the connection")

  (* Server side: accept the oldest pending connect and bind it to
     [inbox] (the chosen worker's event queue). [register] runs before
     the client is released, so server-side connection tables are
     populated before the first request can arrive. A [register] that
     answers [false] refuses the connection: the client's [connect]
     fails. *)
  let accept ?(register = fun (_ : conn) -> true) l ~inbox =
    let resolve = S.recv l.backlog in
    S.advance CM.current.syscall_recv (* accept() *);
    let conn =
      { cid = Atomic.fetch_and_add next_cid 1; inbox; reply = S.chan ();
        rings = None }
    in
    resolve (if register conn then Some conn else None);
    conn

  (* --- ring attachment ------------------------------------------------ *)

  let attach_rings conn ra = conn.rings <- Some ra

  let rings_of conn = conn.rings

  (* Run [f] inside a grant window on the connection's vkey: ring pages
     open, the rest of the heap (and every other connection's rings)
     still sealed, and nothing left open once [f] returns. Every window
     ends in bounded virtual time, so a pin refusal waits one ring slot
     and tries again. *)
  let rec ring_window ra f =
    match Pku.Vpkey.with_grant ra.ra_vkey (fun _ -> f ()) with
    | v -> v
    | exception Pku.Vpkey.All_slots_pinned ->
      S.sleep_ns CM.current.ring_slot;
      ring_window ra f

  (* A receive that actually blocked pays a context switch: a little
     CPU, and scheduling latency during which the thread is off-CPU. *)
  let ctx_switch_penalty () =
    S.advance CM.current.ctx_switch_cpu;
    S.sleep_ns (CM.current.ctx_switch - CM.current.ctx_switch_cpu)

  (* Spin-then-block schedule for a consumer facing an empty ring: the
     waits between its polls before it arms the ring and parks. One
     ring slot, doubling, the last clipped so the waits total exactly
     [window]. With [window] set to what a park would add to the next
     message's latency, polling that long is 2-competitive (Karlin et
     al., SOSP 1991): it never costs more than twice an oracle that
     knew when the message would land. *)
  let backoff_waits ~window =
    let rec go ~left ~wait =
      if left <= 0 then []
      else
        let w = min wait left in
        w :: go ~left:(left - w) ~wait:(2 * wait)
    in
    go ~left:window ~wait:CM.current.ring_slot

  (* A consumer read a message stamped later than its own clock: ring
     slots are host memory, so a fiber can see a publish its producer
     made at a later virtual time. Counted only, at no virtual cost. *)
  let note_early_read stamp =
    if Telemetry.Control.on () && stamp > S.now_ns () then
      C.incr C.Id.ring_early_reads

  (* Bounce a ring connection: the consumer refuses the rings (forged
     slot headers, or a peer that stopped draining); both sides'
     producers raise from now on, and a parked client wakes with
     [Connection_closed]. Only this connection dies — its ring pages
     are private to its vkey, so nothing it wrote can have desynced
     anyone else. *)
  let ring_bounce conn =
    match conn.rings with
    | None -> ()
    | Some ra ->
      ring_window ra (fun () ->
        Ring.mark_dead ra.ra_sub;
        Ring.mark_dead ra.ra_comp);
      C.incr C.Id.ring_kills;
      S.close conn.reply

  (* Publish [payload] into [ring] in chunks of at most one ring, and
     answer whether the consumer is armed (wants a doorbell). A full
     ring closes the window and sleeps for room, at most [max_tries]
     times per chunk ([None]): the server gives up on a client that
     stopped consuming, dead or hostile. *)
  let ring_publish ?(max_tries = max_int) ra ring payload ~counter =
    let maxm = Ring.max_msg ring and n = String.length payload in
    let rec fill at =
      if at >= n then `Sent (Ring.consumer_armed ring)
      else begin
        if Ring.is_dead ring then raise Connection_closed;
        let len = min maxm (n - at) in
        if not (Ring.has_room ring ~len) then `Full at
        else begin
          Ring.produce ring ~stamp:(S.now_ns ()) (String.sub payload at len);
          S.advance (CM.current.ring_slot + CM.memcpy_cost len);
          C.incr counter;
          fill (at + len)
        end
      end
    in
    let rec go at tries =
      match ring_window ra (fun () -> fill at) with
      | `Sent armed -> Some armed
      | `Full at' ->
        let tries = if at' > at then 0 else tries in
        if tries >= max_tries then None
        else begin
          C.incr C.Id.ring_full_waits;
          S.sleep_ns 2_000;
          go at' (tries + 1)
        end
    in
    go 0 0

  (* --- data path --- *)

  let legacy_client_send conn payload =
    S.advance CM.current.syscall_send;
    try
      S.send conn.inbox
        { m_cid = conn.cid; m_payload = payload; m_at = S.now_ns () }
    with S.Closed -> raise Connection_closed

  (* Submission-ring send: payload copied into sequence-stamped slots —
     no syscall at all unless the worker parked itself and asked for a
     doorbell. Messages larger than the ring carry as several chunks
     (the byte stream is what matters, framing is the parser's). *)
  let ring_client_send conn ra payload =
    match ring_publish ra ra.ra_sub payload ~counter:C.Id.ring_submits with
    | Some true ->
      (* the worker is parked: one syscall to ring its doorbell *)
      S.advance CM.current.syscall_send;
      C.incr C.Id.ring_doorbells;
      (try
         S.send conn.inbox
           { m_cid = conn.cid; m_payload = ""; m_at = S.now_ns () }
       with S.Closed -> raise Connection_closed)
    | Some false | None -> ()

  let client_send conn payload =
    match conn.rings with
    | None -> legacy_client_send conn payload
    | Some ra -> ring_client_send conn ra payload

  let legacy_client_recv conn =
    (* If the reply is already there, the read returns straight from
       the kernel; otherwise the client blocks and pays a context
       switch on wake-up. *)
    match S.try_recv conn.reply with
    | Some m ->
      S.advance CM.current.syscall_recv;
      m
    | None ->
      S.advance CM.current.syscall_recv;
      let m =
        try S.recv conn.reply with S.Closed -> raise Connection_closed
      in
      ctx_switch_penalty ();
      m
    | exception S.Closed -> raise Connection_closed

  (* Completion-ring receive. Fast path: a completion is already
     published — consume it with zero kernel involvement. Spin: an
     empty ring is polled (one header read each) on the
     [backoff_waits] schedule over one context-switch interval, the
     wake-up latency a park would add anyway. A reply published inside
     the window costs neither the server's wakeup nor the client's
     context switch, because the ring was never armed. Slow path: arm
     the ring, re-check (the publish-then-check-armed producer protocol
     makes the wakeup race-free), then park on the reply channel, which
     stands in for a futex wait. *)
  let ring_client_recv conn ra =
    let comp = ra.ra_comp in
    let take (msg, stamp) =
      note_early_read stamp;
      S.advance (CM.current.ring_slot + CM.memcpy_cost (String.length msg));
      msg
    in
    (* One window per pass: the spin, then arm and re-check. The park
       is outside any window; the wake-up disarms in the next one. *)
    let rec poll waits =
      if Ring.is_dead comp then raise Connection_closed;
      match (Ring.consume_one comp, waits) with
      | Some m, _ -> Some (take m)
      | None, w :: rest ->
        S.advance CM.current.ring_slot;
        S.sleep_ns w;
        poll rest
      | None, [] -> (
        Ring.set_armed comp true;
        match Ring.consume_one comp with
        | Some m ->
          Ring.set_armed comp false;
          Some (take m)
        | None -> None)
    in
    let rec await ~disarm waits =
      match
        ring_window ra (fun () ->
          if disarm then Ring.set_armed comp false;
          poll waits)
      with
      | Some m -> m
      | None -> (
        S.advance CM.current.syscall_recv (* futex-style wait *);
        match S.recv conn.reply with
        | _token ->
          ctx_switch_penalty ();
          await ~disarm:true []
        | exception S.Closed -> raise Connection_closed)
    in
    await ~disarm:false (backoff_waits ~window:CM.current.ctx_switch)

  let client_recv conn =
    match conn.rings with
    | None -> legacy_client_recv conn
    | Some ra -> ring_client_recv conn ra

  (* Worker side: pull the next event off the queue. The
     immediate-vs-blocking distinction is the paper's select()
     behaviour. *)
  let worker_recv (inbox : message S.chan) =
    (* The kernel copies the payload out on read(2): charge the wire
       cost here, serialized into the server's critical path. *)
    match S.try_recv inbox with
    | Some m ->
      S.advance
        (CM.current.syscall_select + CM.current.syscall_recv
         + CM.wire_cost (String.length m.m_payload));
      m
    | None ->
      S.advance (CM.current.syscall_select + CM.current.syscall_recv);
      let m = S.recv inbox in
      ctx_switch_penalty ();
      S.advance (CM.wire_cost (String.length m.m_payload));
      m

  (* Batch plane: drain everything the event queue already holds in one
     go — one select() covering all ready connections, then one read(2)
     per connection that had pending bytes, the wire cost covering every
     byte copied out of that connection's kernel buffer. Blocks (with
     the context-switch penalty) only when nothing is pending at all.
     For a single pending message the total charge equals
     [worker_recv]'s; the amortization appears exactly when a
     connection pipelined multiple requests into the queue. *)
  let worker_drain (inbox : message S.chan) : message list =
    let first =
      match S.try_recv inbox with
      | Some m ->
        S.advance CM.current.syscall_select;
        m
      | None ->
        S.advance CM.current.syscall_select;
        let m = S.recv inbox in
        ctx_switch_penalty ();
        m
    in
    let rec drain acc =
      match S.try_recv inbox with
      | Some m -> drain (m :: acc)
      | None | (exception S.Closed) -> List.rev acc
    in
    let msgs = first :: drain [] in
    let cids = List.sort_uniq compare (List.map (fun m -> m.m_cid) msgs) in
    S.advance (List.length cids * CM.current.syscall_recv);
    List.iter
      (fun m -> S.advance (CM.wire_cost (String.length m.m_payload)))
      msgs;
    msgs

  let legacy_server_send conn payload =
    S.advance (CM.current.syscall_send + CM.current.wakeup);
    try S.send conn.reply payload with S.Closed -> ()

  (* Publish a coalesced reply into the completion ring. The syscall
     only happens when the client is parked; a pipelining client that
     keeps ahead of its completions never costs the server a wakeup. A
     client that stopped consuming (killed, or hostile) bounces after a
     bounded stall so one connection can never wedge its worker. *)
  let ring_server_send conn ra payload =
    match
      ring_publish ~max_tries:64 ra ra.ra_comp payload
        ~counter:C.Id.ring_completions
    with
    | Some true ->
      S.advance (CM.current.syscall_send + CM.current.wakeup);
      C.incr C.Id.ring_wakes;
      (try S.send conn.reply "" with S.Closed -> ())
    | Some false -> ()
    | None -> ring_bounce conn
    | exception Connection_closed -> ()

  let server_send conn payload =
    match conn.rings with
    | None -> legacy_server_send conn payload
    | Some ra -> ring_server_send conn ra payload

  (* Worker-side ring primitives, used by the server's ring drain
     loop (lib/mc_server/server.ml). *)

  (* Validated peek at the published submission window — slot headers
     only, read outside the crossing under the connection's vkey. *)
  let ring_pending conn =
    match conn.rings with
    | None -> Ok None
    | Some ra ->
      ring_window ra (fun () ->
        S.advance CM.current.ring_slot;
        Ring.pending ra.ra_sub)

  (* Copy the whole published window in — run *inside* the library
     crossing, like the paper's copy_in: the bytes leave the
     client-writable pages before anything parses them. An [Error]
     means the validation walk caught forged headers; the caller
     bounces the connection without entering the parser. *)
  let ring_consume conn =
    match conn.rings with
    | None -> Ok []
    | Some ra ->
      (match ring_window ra (fun () -> Ring.consume_all ra.ra_sub) with
       | Ok msgs ->
         List.iter (fun (_, stamp) -> note_early_read stamp) msgs;
         List.iter
           (fun (m, _) ->
             S.advance
               (CM.current.ring_slot + CM.memcpy_cost (String.length m)))
           msgs;
         if msgs <> [] then begin
           C.incr C.Id.ring_drains;
           C.add ~n:(List.length msgs) C.Id.ring_drain_ops
         end;
         Ok msgs
       | Error _ as e -> e)

  let ring_arm conn v =
    match conn.rings with
    | None -> ()
    | Some ra -> ring_window ra (fun () -> Ring.set_armed ra.ra_sub v)

  let close_conn conn =
    (match conn.rings with
     | Some ra ->
       ring_window ra (fun () ->
         Ring.mark_dead ra.ra_sub;
         Ring.mark_dead ra.ra_comp)
     | None -> ());
    S.close conn.reply

  (* --- a raw bidirectional pipe, for the null-call benchmark --- *)

  type pipe = { a2b : string S.chan; b2a : string S.chan }

  let pipe () = { a2b = S.chan (); b2a = S.chan () }

  let pipe_send ch payload =
    S.advance CM.current.syscall_send;
    S.send ch payload

  let pipe_recv ch =
    match S.try_recv ch with
    | Some m ->
      S.advance CM.current.syscall_recv;
      m
    | None ->
      S.advance CM.current.syscall_recv;
      let m = S.recv ch in
      ctx_switch_penalty ();
      m
end
