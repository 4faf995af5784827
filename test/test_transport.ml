(** The socket model and the baseline server, driven inside the
    virtual-time machine. *)

module S = Vm.Sync
module Cl = Core.Client.Make (Vm.Sync)
module T = Cl.T
module Srv = Mc_server.Server.Make (Vm.Sync) (T)
module P = Mc_protocol.Types

let in_vm f =
  let vm = Vm.create () in
  let out = ref None in
  ignore (Vm.spawn vm ~name:"main" (fun () -> out := Some (f ())));
  Vm.run vm;
  Option.get !out

let test_connect_accept_roundtrip () =
  ignore (in_vm (fun () ->
    let l = T.listen ~name:"svc" in
    let inbox = S.chan () in
    let server =
      S.spawn ~name:"srv" (fun () ->
        let conn = T.accept l ~inbox in
        let m = T.worker_recv inbox in
        Alcotest.(check int) "tagged with the conn id" conn.T.cid m.T.m_cid;
        T.server_send conn ("pong:" ^ m.T.m_payload))
    in
    let conn = T.connect ~name:"svc" in
    T.client_send conn "ping";
    Alcotest.(check string) "reply" "pong:ping" (T.client_recv conn);
    S.join server;
    T.close_listener l))

let test_connect_unknown_fails () =
  ignore (in_vm (fun () ->
    match T.connect ~name:"no-such-service" with
    | _ -> Alcotest.fail "expected failure"
    | exception Failure _ -> ()))

let test_messages_cost_latency () =
  let elapsed = in_vm (fun () ->
    let l = T.listen ~name:"lat" in
    let inbox = S.chan () in
    let server =
      S.spawn (fun () ->
        let conn = T.accept l ~inbox in
        for _ = 1 to 10 do
          let m = T.worker_recv inbox in
          T.server_send conn m.T.m_payload
        done)
    in
    let conn = T.connect ~name:"lat" in
    let t0 = S.now_ns () in
    for _ = 1 to 10 do
      T.client_send conn "x";
      ignore (T.client_recv conn)
    done;
    let dt = (S.now_ns () - t0) / 10 in
    S.join server;
    T.close_listener l;
    dt)
  in
  (* a Unix-socket round trip costs microseconds, not nanoseconds *)
  Alcotest.(check bool)
    (Printf.sprintf "round trip %dns in plausible range" elapsed)
    true
    (elapsed > 3_000 && elapsed < 20_000)

let with_server ?(cfg = { Mc_server.Server.default_config with workers = 2 })
    name f =
  in_vm (fun () ->
    let srv = Srv.start ~cfg ~name () in
    let r = f () in
    Srv.stop srv;
    r)

let test_server_binary_ops () =
  ignore (with_server "srv-bin" (fun () ->
    let c = Cl.Sock.connect ~name:"srv-bin" () in
    Alcotest.(check bool) "set" true
      (Cl.Sock.set c ~flags:3 "k" "v" = Mc_core.Store.Stored);
    (match Cl.Sock.get c "k" with
     | Some r ->
       Alcotest.(check string) "value" "v" r.Mc_core.Store.value;
       Alcotest.(check int) "flags" 3 r.Mc_core.Store.flags
     | None -> Alcotest.fail "hit expected");
    Alcotest.(check bool) "delete" true (Cl.Sock.delete c "k");
    Alcotest.(check bool) "get miss" true (Cl.Sock.get c "k" = None);
    ignore (Cl.Sock.set c "n" "41");
    Alcotest.(check bool) "incr" true
      (Cl.Sock.incr c "n" 1L = Mc_core.Store.Counter 42L);
    Alcotest.(check bool) "version" true (Cl.Sock.version c <> None);
    let stats = Cl.Sock.stats c in
    Alcotest.(check bool) "stats over the wire" true
      (List.mem_assoc "curr_items" stats);
    Cl.Sock.quit c))

let test_server_ascii_ops () =
  let cfg =
    { Mc_server.Server.default_config with workers = 2;
      protocol = Mc_server.Server.Ascii }
  in
  ignore (with_server ~cfg "srv-ascii" (fun () ->
    let c = Cl.Sock.connect ~protocol:Cl.Sock.Ascii ~name:"srv-ascii" () in
    ignore (Cl.Sock.set c "a" "1");
    ignore (Cl.Sock.set c "b" "2");
    (* ASCII multi-get *)
    let hits = Cl.Sock.mget c [ "a"; "b"; "missing" ] in
    Alcotest.(check int) "two hits of three keys" 2 (List.length hits);
    Alcotest.(check bool) "append" true
      (Cl.Sock.append c "a" "!" = Mc_core.Store.Stored);
    (match Cl.Sock.get c "a" with
     | Some r -> Alcotest.(check string) "appended" "1!" r.Mc_core.Store.value
     | None -> Alcotest.fail "hit");
    Cl.Sock.quit c))

(* A value of the codecs' largest size makes an item past the slab's
   largest chunk; over either codec the set gets a reply and the item
   reads back, rather than the server wedging its stripe. *)
let test_server_largest_value () =
  List.iter
    (fun (label, protocol, cprotocol) ->
      let cfg =
        { Mc_server.Server.default_config with workers = 1; protocol }
      in
      let name = "srv-big-" ^ label in
      ignore (with_server ~cfg name (fun () ->
        let c = Cl.Sock.connect ~protocol:cprotocol ~name () in
        let big = String.make P.max_data_bytes 'b' in
        Alcotest.(check bool) (label ^ ": stored") true
          (Cl.Sock.set c "big" big = Mc_core.Store.Stored);
        (match Cl.Sock.get c "big" with
         | Some r ->
           Alcotest.(check bool) (label ^ ": value intact") true
             (r.Mc_core.Store.value = big)
         | None -> Alcotest.fail (label ^ ": hit expected"));
        Cl.Sock.quit c)))
    [ ("ascii", Mc_server.Server.Ascii, Cl.Sock.Ascii);
      ("binary", Mc_server.Server.Binary, Cl.Sock.Binary) ]

let test_server_parse_error_keeps_connection () =
  let cfg =
    { Mc_server.Server.default_config with workers = 1;
      protocol = Mc_server.Server.Ascii }
  in
  ignore (with_server ~cfg "srv-err" (fun () ->
    let c = Cl.Sock.connect ~protocol:Cl.Sock.Ascii ~name:"srv-err" () in
    (* raw garbage first *)
    let conn = c.Cl.Sock.conn in
    T.client_send conn "n0nsense command\r\n";
    (match Mc_protocol.Ascii.parse_response (T.client_recv conn) with
     | Mc_protocol.Types.Client_error _ -> ()
     | _ -> Alcotest.fail "expected CLIENT_ERROR");
    (* the connection still works afterwards *)
    ignore (Cl.Sock.set c "k" "v");
    Alcotest.(check bool) "conn survives a bad request" true
      (Cl.Sock.get c "k" <> None)))

let test_many_clients_two_workers () =
  ignore (with_server "srv-many" (fun () ->
    let clients = List.init 8 (fun _ -> Cl.Sock.connect ~name:"srv-many" ()) in
    let done_ = Atomic.make 0 in
    let ths =
      List.mapi
        (fun i c ->
          S.spawn (fun () ->
            for j = 0 to 30 do
              let k = Printf.sprintf "c%d-%d" i j in
              assert (Cl.Sock.set c k k = Mc_core.Store.Stored);
              assert (Cl.Sock.get c k <> None)
            done;
            Atomic.incr done_))
        clients
    in
    List.iter S.join ths;
    Alcotest.(check int) "all clients finished" 8 (Atomic.get done_)))

let test_noreply_suppresses_response () =
  let cfg =
    { Mc_server.Server.default_config with workers = 1;
      protocol = Mc_server.Server.Ascii }
  in
  ignore (with_server ~cfg "srv-noreply" (fun () ->
    let c = Cl.Sock.connect ~protocol:Cl.Sock.Ascii ~name:"srv-noreply" () in
    let conn = c.Cl.Sock.conn in
    (* a noreply set produces no response frame; the next command's
       response must be the very next frame on the wire *)
    T.client_send conn
      (Mc_protocol.Ascii.encode_command
         (P.Set { P.key = "quiet"; flags = 0; exptime = 0; data = "v";
                  noreply = true }));
    T.client_send conn (Mc_protocol.Ascii.encode_command (P.Get [ "quiet" ]));
    (match Mc_protocol.Ascii.parse_response (T.client_recv conn) with
     | P.Values { vals = [ v ]; _ } ->
       Alcotest.(check string) "noreply set applied" "v" v.P.v_data
     | _ -> Alcotest.fail "expected the GET's VALUE as the first frame")))

(* Byte-stream semantics: the server must reassemble requests that
   arrive in fragments, and drain several pipelined requests delivered
   in one read. *)
let test_fragmented_request_reassembled () =
  let cfg =
    { Mc_server.Server.default_config with workers = 1;
      protocol = Mc_server.Server.Ascii }
  in
  ignore (with_server ~cfg "srv-frag" (fun () ->
    let c = Cl.Sock.connect ~protocol:Cl.Sock.Ascii ~name:"srv-frag" () in
    let conn = c.Cl.Sock.conn in
    let wire =
      Mc_protocol.Ascii.encode_command
        (P.Set { P.key = "frag"; flags = 0; exptime = 0;
                 data = "reassembled-data"; noreply = false })
    in
    (* deliver it in 5 ragged chunks, as read(2) might *)
    let n = String.length wire in
    let cuts = [ 0; 3; 7; n / 2; n - 2; n ] in
    let rec send_pieces = function
      | a :: (b :: _ as rest) ->
        T.client_send conn (String.sub wire a (b - a));
        send_pieces rest
      | _ -> ()
    in
    send_pieces cuts;
    (match Mc_protocol.Ascii.parse_response (T.client_recv conn) with
     | P.Stored -> ()
     | _ -> Alcotest.fail "expected STORED after reassembly");
    (match Cl.Sock.get c "frag" with
     | Some r ->
       Alcotest.(check string) "value intact" "reassembled-data"
         r.Mc_core.Store.value
     | None -> Alcotest.fail "hit expected")))

let test_pipelined_requests_one_chunk () =
  let cfg =
    { Mc_server.Server.default_config with workers = 1;
      protocol = Mc_server.Server.Ascii }
  in
  ignore (with_server ~cfg "srv-pipe2" (fun () ->
    let c = Cl.Sock.connect ~protocol:Cl.Sock.Ascii ~name:"srv-pipe2" () in
    let conn = c.Cl.Sock.conn in
    (* three requests in a single write *)
    let wire =
      Mc_protocol.Ascii.encode_command
        (P.Set { P.key = "p1"; flags = 0; exptime = 0; data = "a";
                 noreply = false })
      ^ Mc_protocol.Ascii.encode_command
          (P.Set { P.key = "p2"; flags = 0; exptime = 0; data = "b";
                   noreply = false })
      ^ Mc_protocol.Ascii.encode_command (P.Get [ "p1"; "p2" ])
    in
    T.client_send conn wire;
    (* The batch plane answers a pipelined chunk with one coalesced
       reply buffer: one send carrying all three replies in order. *)
    let reply = T.client_recv conn in
    let r1, u1 = Mc_protocol.Ascii.parse_response_at reply ~at:0 in
    let r2, u2 = Mc_protocol.Ascii.parse_response_at reply ~at:u1 in
    let r3, u3 = Mc_protocol.Ascii.parse_response_at reply ~at:(u1 + u2) in
    Alcotest.(check int) "one send carried everything" (String.length reply)
      (u1 + u2 + u3);
    (match r1 with P.Stored -> () | _ -> Alcotest.fail "first reply");
    (match r2 with P.Stored -> () | _ -> Alcotest.fail "second reply");
    (match r3 with
     | P.Values { vals; _ } ->
       Alcotest.(check int) "both keys served" 2 (List.length vals)
     | _ -> Alcotest.fail "third reply")))

let test_binary_fragmentation () =
  ignore (with_server "srv-binfrag" (fun () ->
    let c = Cl.Sock.connect ~name:"srv-binfrag" () in
    let conn = c.Cl.Sock.conn in
    let wire =
      Mc_protocol.Binary.encode_command
        (P.Set { P.key = "bk"; flags = 1; exptime = 0; data = "bin-data";
                 noreply = false })
    in
    (* header split from the body *)
    T.client_send conn (String.sub wire 0 10);
    T.client_send conn (String.sub wire 10 (String.length wire - 10));
    (match
       Mc_protocol.Binary.parse_response
         ~for_cmd:(P.Set { P.key = "bk"; flags = 1; exptime = 0;
                           data = "bin-data"; noreply = false })
         (T.client_recv conn)
     with
    | P.Stored -> ()
    | _ -> Alcotest.fail "expected Stored");
    (match Cl.Sock.get c "bk" with
     | Some r ->
       Alcotest.(check string) "value" "bin-data" r.Mc_core.Store.value
     | None -> Alcotest.fail "hit")))

let test_pipe () =
  ignore (in_vm (fun () ->
    let p = T.pipe () in
    let peer =
      S.spawn (fun () ->
        let m = T.pipe_recv p.T.a2b in
        T.pipe_send p.T.b2a (m ^ "!"))
    in
    T.pipe_send p.T.a2b "hello";
    Alcotest.(check string) "pipe roundtrip" "hello!" (T.pipe_recv p.T.b2a);
    S.join peer))

(* ---- Shared rings ------------------------------------------------------
   Pure region mechanics — no substrate, no VM: the ring is exercised
   directly against an unsealed region, the way the crash-recovery
   path sees it. *)

module Ring = Transport.Ring
module Region = Shm.Region

let mk_ring ?(slots = 8) ?(slot_bytes = 64) () =
  let r = Region.create ~name:"ring" ~size:Region.page_size ~pkey:0 () in
  (r, Ring.init r ~base:0 ~slots ~slot_bytes)

(* First-slot offset of ring position [pos] (base 0, matching mk_ring). *)
let slot_off ~slot_bytes ~slots pos =
  Ring.hdr_bytes + (pos mod slots * slot_bytes)

let test_ring_roundtrip () =
  let _r, t = mk_ring () in
  Alcotest.(check bool) "fresh ring empty" true (Ring.is_empty t);
  Ring.produce t ~stamp:10 "alpha";
  Ring.produce t ~stamp:20 "beta";
  Ring.produce t ~stamp:30 "gamma";
  (match Ring.pending t with
   | Ok (Some p) ->
     Alcotest.(check int) "three pending" 3 p.Ring.p_msgs;
     Alcotest.(check int) "oldest stamp" 10 p.Ring.p_first_stamp
   | _ -> Alcotest.fail "expected three pending messages");
  (match Ring.consume_all t with
   | Ok msgs ->
     Alcotest.(check (list (pair string int)))
       "in order, with stamps"
       [ ("alpha", 10); ("beta", 20); ("gamma", 30) ]
       msgs
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "drained" true (Ring.is_empty t);
  Alcotest.(check int) "acked watermark tracks head" (Ring.head t)
    (Ring.acked t)

let test_ring_chunking () =
  let _r, t = mk_ring () in
  let cap = Ring.frag_cap t in
  (* Three-fragment message with a position-dependent pattern, so a
     misassembled fragment order cannot produce the same bytes. *)
  let big = String.init ((2 * cap) + 7) (fun i -> Char.chr (32 + (i mod 95))) in
  Ring.produce t ~stamp:1 big;
  Alcotest.(check int) "occupies three slots" 3 (Ring.slots_used t);
  (match Ring.consume_one t with
   | Some (m, stamp) ->
     Alcotest.(check string) "reassembled verbatim" big m;
     Alcotest.(check int) "first slot's stamp" 1 stamp
   | None -> Alcotest.fail "message lost");
  (* Degenerate producer inputs are refused outright. *)
  (match Ring.produce t ~stamp:1 "" with
   | () -> Alcotest.fail "empty message accepted"
   | exception Invalid_argument _ -> ());
  match Ring.produce t ~stamp:1 (String.make (Ring.max_msg t + 1) 'x') with
  | () -> Alcotest.fail "oversized message accepted"
  | exception Invalid_argument _ -> ()

let test_ring_wraparound () =
  let _r, t = mk_ring () in
  let cap = Ring.frag_cap t in
  for i = 1 to 100 do
    (* Alternate one- and two-fragment messages so wrap boundaries
       land inside multi-slot messages too. *)
    let m =
      Printf.sprintf "m%03d:%s" i (String.make (if i mod 2 = 0 then cap else 3) 'y')
    in
    Ring.produce t ~stamp:i m;
    match Ring.consume_one t with
    | Some (got, _) -> Alcotest.(check string) "survives the wrap" m got
    | None -> Alcotest.fail "message lost at wrap"
  done;
  Alcotest.(check bool) "positions ran past the ring size" true
    (Ring.head t > 8)

let test_ring_backpressure () =
  let _r, t = mk_ring () in
  for i = 1 to 8 do
    Alcotest.(check bool) "room while filling" true (Ring.has_room t ~len:1);
    Ring.produce t ~stamp:i "z"
  done;
  Alcotest.(check bool) "full ring reports no room" false
    (Ring.has_room t ~len:1);
  (match Ring.produce t ~stamp:9 "z" with
   | () -> Alcotest.fail "produce into a full ring"
   | exception Invalid_argument _ -> ());
  (match Ring.consume_all t with
   | Ok msgs -> Alcotest.(check int) "all eight drained" 8 (List.length msgs)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "room again after the drain" true
    (Ring.has_room t ~len:1)

let test_ring_doorbell_and_death () =
  let _r, t = mk_ring () in
  Alcotest.(check bool) "fresh ring unarmed" false (Ring.consumer_armed t);
  Ring.set_armed t true;
  Alcotest.(check bool) "armed" true (Ring.consumer_armed t);
  Ring.set_armed t false;
  Alcotest.(check bool) "disarmed" false (Ring.consumer_armed t);
  Alcotest.(check bool) "alive" false (Ring.is_dead t);
  Ring.mark_dead t;
  Alcotest.(check bool) "dead after bounce" true (Ring.is_dead t)

let test_ring_forgery_detected () =
  (* Stomped sequence word. *)
  let r, t = mk_ring () in
  Ring.produce t ~stamp:1 "aaaa";
  Ring.produce t ~stamp:2 "bbbb";
  Region.write_i64 r (slot_off ~slot_bytes:64 ~slots:8 0) 99;
  (match Ring.pending t with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "forged seq not caught");
  (* Forged length. *)
  let r, t = mk_ring () in
  Ring.produce t ~stamp:1 "aaaa";
  Region.write_i64 r (slot_off ~slot_bytes:64 ~slots:8 0 + 8)
    (Ring.max_msg t + 4096);
  (match Ring.pending t with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "forged length not caught");
  (* Overfilled window: tail stomped past head + slots. *)
  let r, t = mk_ring () in
  Ring.produce t ~stamp:1 "aaaa";
  Region.write_i64 r 32 (Ring.head t + 8 + 5);
  match Ring.pending t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overfill not caught"

let test_ring_validation_toggle () =
  (* The pre-hardening consumer trusts headers verbatim: the same
     stomped sequence word sails through the walk. The red-team suite
     turns this into a full breach; here we pin just the toggle. *)
  let r, t = mk_ring () in
  Ring.produce t ~stamp:1 "aaaa";
  Region.write_i64 r (slot_off ~slot_bytes:64 ~slots:8 0) 99;
  Defenses.with_off Ring_validation @@ fun () ->
  match Ring.pending t with
  | Ok (Some p) ->
    Alcotest.(check int) "forgery walks right through" 1 p.Ring.p_msgs
  | Ok None -> Alcotest.fail "pending message vanished"
  | Error _ -> Alcotest.fail "unhardened walk must not validate"

let test_ring_recover_truncates_torn () =
  let r, t = mk_ring () in
  Ring.produce t ~stamp:5 "committed";
  Ring.produce t ~stamp:6 "torn";
  (* Simulate the kill landing mid-produce of the second message: its
     first-slot sequence word was never stamped (the producer writes
     it last), but the tail already moved. *)
  Region.write_i64 r (slot_off ~slot_bytes:64 ~slots:8 1) 0;
  Ring.set_armed t true;
  Ring.recover t;
  Alcotest.(check bool) "recovery disarms" false (Ring.consumer_armed t);
  (match Ring.consume_all t with
   | Ok msgs ->
     Alcotest.(check (list (pair string int)))
       "committed entry survives, torn entry absent — never partial"
       [ ("committed", 5) ] msgs
   | Error e -> Alcotest.fail e);
  (* Broken header invariants get clamped, not trusted. *)
  let r2, t2 = mk_ring () in
  Ring.produce t2 ~stamp:1 "x";
  ignore (Ring.consume_all t2);
  Region.write_i64 r2 40 77 (* acked way past head *);
  Region.write_i64 r2 32 0 (* tail behind head *);
  Ring.recover t2;
  Alcotest.(check bool) "acked clamped to head" true
    (Ring.acked t2 <= Ring.head t2);
  Alcotest.(check bool) "tail clamped to head" true
    (Ring.tail t2 >= Ring.head t2)

let test_ring_attach () =
  let r, t = mk_ring () in
  Ring.produce t ~stamp:3 "persisted";
  let t2 = Ring.attach r ~base:0 in
  Alcotest.(check int) "geometry recovered" (Ring.max_msg t) (Ring.max_msg t2);
  (match Ring.consume_one t2 with
   | Some (m, _) ->
     Alcotest.(check string) "visible through reattach" "persisted" m
   | None -> Alcotest.fail "message lost across attach");
  Region.write_i64 r 0 0xBAD;
  match Ring.attach r ~base:0 with
  | _ -> Alcotest.fail "attach accepted a corrupt magic"
  | exception Invalid_argument _ -> ()

(* ---- Ring server: the work-conserving drain -----------------------------
   A one-worker ring-mode server in front of a fresh protected library,
   one client connection (two where a case needs a bystander). The
   worker drains whatever a ring holds as soon as it looks; when every
   ring is empty it naps one context switch, then keeps polling with
   backoff for what a park would cost, and only then arms the doorbells
   and parks. *)

module TC = Telemetry.Counters
module CS = Cl.Sock

let ring_srv_fresh = ref 0

(* [f plib name] runs against a server called [name] in front of
   [plib]. *)
let with_plib_srv ?(vm = Vm.create ()) ~rings f =
  incr ring_srv_fresh;
  let id = !ring_srv_fresh in
  let path = Printf.sprintf "/shm/ring-srv-%d" id in
  let plib =
    Cl.Plib.create ~path ~size:(8 lsl 20)
      ~owner:(Simos.Process.make ~uid:1000 "ring-srv") ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Cl.Plib.library plib))
    (fun () ->
      let out = ref None in
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let name = Printf.sprintf "ring-srv-%d" id in
           let rings =
             if rings then Some Mc_server.Server.default_ring_config else None
           in
           let srv =
             Cl.Plib.serve_remote
               ~cfg:{ Mc_server.Server.default_config with workers = 1 }
               ?rings plib ~name
           in
           out := Some (f plib name);
           Cl.Plib.stop_remote srv));
      Vm.run vm;
      Option.get !out)

let with_plib_conns ?vm ~rings ~n f =
  with_plib_srv ?vm ~rings (fun _ name ->
    f (List.init n (fun _ -> CS.connect ~name ())))

let with_plib_server ?vm ~rings f =
  with_plib_conns ?vm ~rings ~n:1 (fun cs -> f (List.hd cs))

let rings_of c = Option.get (T.rings_of c.CS.conn)

let idle () = S.sleep_ns 100_000

let drains () = (TC.read TC.Id.ring_drains, TC.read TC.Id.ring_drain_ops)

let check_hit msg want = function
  | P.Values { vals = [ v ]; _ } -> Alcotest.(check string) msg want v.P.v_data
  | _ -> Alcotest.fail (msg ^ ": expected a hit")

(* Round trip of one get sent to a server that has gone idle. *)
let idle_get_ns c =
  ignore (CS.set c "k" "v");
  idle ();
  let t0 = S.now_ns () in
  (match CS.get c "k" with
   | Some r -> Alcotest.(check string) "hit" "v" r.Mc_core.Store.value
   | None -> Alcotest.fail "hit expected");
  S.now_ns () - t0

let test_ring_lone_request_no_wait () =
  let legacy = with_plib_server ~rings:false idle_get_ns in
  let ring, (d, o) =
    with_plib_server ~rings:true (fun c ->
      let d0, o0 = drains () in
      let rt = idle_get_ns c in
      let d1, o1 = drains () in
      (rt, (d1 - d0, o1 - o0)))
  in
  (* the set and the get: each went through a drain of its own *)
  Alcotest.(check (pair int int)) "one drain per lone request" (2, 2) (d, o);
  Alcotest.(check bool)
    (Printf.sprintf "ring round trip %dns no slower than legacy %dns" ring
       legacy)
    true (ring <= legacy)

let test_ring_backlog_one_drain () =
  with_plib_server ~rings:true (fun c ->
    ignore (CS.set c "k" "v");
    idle ();
    let n = 8 in
    let cmd = P.Gets [ "k" ] in
    let req = Mc_protocol.Binary.encode_command cmd in
    let d0, o0 = drains () and e0 = TC.read TC.Id.hodor_enter in
    (* Publish n-1 requests straight into the submission ring: no
       doorbell, so the parked worker sleeps on. The nth goes through
       the client, whose send finds the ring armed and rings it. *)
    let ra = rings_of c in
    T.ring_window ra (fun () ->
      for _ = 1 to n - 1 do
        Transport.Ring.produce ra.T.ra_sub ~stamp:(S.now_ns ()) req
      done);
    T.client_send c.CS.conn req;
    let st = CS.stream c in
    for i = 1 to n do
      check_hit (Printf.sprintf "reply %d" i) "v" (CS.await st cmd)
    done;
    let d1, o1 = drains () in
    Alcotest.(check int) "one drain" 1 (d1 - d0);
    Alcotest.(check int) "carrying every request" n (o1 - o0);
    Alcotest.(check int) "one crossing" 1 (TC.read TC.Id.hodor_enter - e0))

let test_ring_nap_then_park () =
  with_plib_server ~rings:true (fun c ->
    ignore (CS.set c "k" "v");
    idle ();
    let ra = rings_of c in
    let armed () =
      T.ring_window ra (fun () -> Transport.Ring.consumer_armed ra.T.ra_sub)
    in
    Alcotest.(check bool) "idle worker armed its ring" true (armed ());
    let st = CS.stream c in
    let cmd = P.Gets [ "k" ] in
    let b0 = TC.read TC.Id.ring_doorbells in
    CS.submit st cmd;
    Alcotest.(check int) "the next produce rings one doorbell" 1
      (TC.read TC.Id.ring_doorbells - b0);
    (* Watch the completion ring instead of parking on it, so the
       reply is seen the moment the drain ends; the worker is then in
       its nap, not parked. *)
    while T.ring_window ra (fun () -> Transport.Ring.is_empty ra.T.ra_comp) do
      S.sleep_ns 100
    done;
    Alcotest.(check bool) "the worker naps before it arms" false (armed ());
    let b1 = TC.read TC.Id.ring_doorbells and d0, _ = drains () in
    CS.submit st cmd;
    check_hit "first reply" "v" (CS.await st cmd);
    check_hit "second reply" "v" (CS.await st cmd);
    Alcotest.(check int) "a request during the nap rings no doorbell" 0
      (TC.read TC.Id.ring_doorbells - b1);
    Alcotest.(check int) "the re-check drains it" 1 (fst (drains ()) - d0);
    idle ();
    Alcotest.(check bool) "armed again once the nap found nothing" true
      (armed ()))

(* Bursts and idle gaps on one connection under perturbed schedules.
   The gaps straddle the nap and the end of the whole idle window
   (shorter, equal, longer, long enough to park), which is where a lost
   wakeup would hide; one would leave the client parked for good, and
   [Vm.run] reports that as a deadlock. *)
let test_ring_seeded_bursts () =
  let gaps =
    [| 0; 1_000; 2_900; 3_000; 3_100; 5_400; 5_500; 5_600; 6_000; 50_000 |]
  in
  for seed = 1 to 16 do
    let vm = Vm.create ~sched_seed:seed ~preempt_jitter:50 () in
    let rng = Random.State.make [| seed |] in
    let expected = ref 0 in
    let served =
      match
        with_plib_server ~vm ~rings:true (fun c ->
          let st = CS.stream c in
          let served = ref 0 in
          for round = 1 to 12 do
            let key = Printf.sprintf "k%d" round in
            let data = Printf.sprintf "v%d.%d" seed round in
            let set =
              P.Set { P.key; flags = 0; exptime = 0; data; noreply = false }
            in
            let gets =
              List.init (Random.State.int rng 6) (fun _ -> P.Gets [ key ])
            in
            expected := !expected + 1 + List.length gets;
            List.iter (CS.submit st) (set :: gets);
            (match CS.await st set with
             | P.Stored -> incr served
             | _ -> Alcotest.fail "set not stored");
            List.iter
              (fun cmd ->
                check_hit "get after set, in order" data (CS.await st cmd);
                incr served)
              gets;
            S.sleep_ns gaps.(Random.State.int rng (Array.length gaps))
          done;
          !served)
      with
      | n -> n
      | exception Vm.Deadlock names ->
        Alcotest.failf "seed %d: lost wakeup, blocked: %s" seed names
    in
    Alcotest.(check int) (Printf.sprintf "seed %d: every request served" seed)
      !expected served
  done

(* ---- Ring client: spin before parking ------------------------------------
   A bare ring connection with the test playing the server by hand, so
   it decides exactly when a reply lands relative to the client's
   one-context-switch polling window. *)

let ring_conn_fresh = ref 0

(* [serve conn] runs on a thread of its own once the client connected;
   [f conn] is the client side. *)
let with_ring_conn ~serve f =
  incr ring_conn_fresh;
  let name = Printf.sprintf "ring-conn-%d" !ring_conn_fresh in
  let vk = Pku.Vpkey.alloc () in
  Fun.protect ~finally:(fun () -> Pku.Vpkey.free vk) @@ fun () ->
  in_vm (fun () ->
    let l = T.listen ~name in
    let inbox = S.chan () in
    let acceptor =
      S.spawn (fun () ->
        let register conn =
          let _, sub = mk_ring () and _, comp = mk_ring () in
          T.attach_rings conn { T.ra_sub = sub; ra_comp = comp; ra_vkey = vk };
          true
        in
        serve (T.accept ~register l ~inbox))
    in
    let conn = T.connect ~name in
    let out = f conn in
    S.join acceptor;
    T.close_listener l;
    out)

let comp_of conn = (Option.get (T.rings_of conn)).T.ra_comp

(* The server publishes [payload] after [delay] ns and records whether
   the client had armed its completion ring by then. *)
let reply_after ~delay payload armed_at_publish conn =
  S.sleep_ns delay;
  armed_at_publish := Transport.Ring.consumer_armed (comp_of conn);
  T.server_send conn payload

let timed_recv conn =
  let w0 = TC.read TC.Id.ring_wakes and t0 = S.now_ns () in
  let m = T.client_recv conn in
  (m, S.now_ns () - t0, TC.read TC.Id.ring_wakes - w0)

let ctx_switch () = Platform.Cost_model.current.ctx_switch

let test_ring_client_spin_takes_reply () =
  let armed = ref true in
  let m, dt, wakes =
    with_ring_conn
      ~serve:(reply_after ~delay:(ctx_switch () / 3) "pong" armed)
      timed_recv
  in
  Alcotest.(check string) "reply bytes" "pong" m;
  Alcotest.(check bool) "completion ring never armed" false !armed;
  Alcotest.(check int) "no wakeup paid" 0 wakes;
  Alcotest.(check bool)
    (Printf.sprintf "taken within the window (%dns)" dt)
    true (dt < ctx_switch ())

let test_ring_client_parks_after_window () =
  let armed = ref false in
  let payload = String.init 200 (fun i -> Char.chr (65 + (i mod 26))) in
  let delay = 3 * ctx_switch () in
  let dt, wakes, bytes =
    with_ring_conn ~serve:(reply_after ~delay payload armed) (fun conn ->
      let m, dt, wakes = timed_recv conn in
      (* a reply longer than one slot arrives as several chunks *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf m;
      while Buffer.length buf < String.length payload do
        Buffer.add_string buf (T.client_recv conn)
      done;
      (dt, wakes, Buffer.contents buf))
  in
  Alcotest.(check string) "reply bytes" payload bytes;
  Alcotest.(check bool) "client armed after the window" true !armed;
  Alcotest.(check int) "woken once" 1 wakes;
  Alcotest.(check bool)
    (Printf.sprintf "parked past the publish (%dns)" dt)
    true
    (dt >= delay + ctx_switch ())

let test_ring_client_closed_while_spinning () =
  List.iter
    (fun (label, kill) ->
      let outcome, dt, wakes =
        with_ring_conn
          ~serve:(fun conn ->
            S.sleep_ns (ctx_switch () / 3);
            kill conn)
          (fun conn ->
            let w0 = TC.read TC.Id.ring_wakes and t0 = S.now_ns () in
            let outcome =
              match T.client_recv conn with
              | _ -> `Reply
              | exception T.Connection_closed ->
                if Transport.Ring.consumer_armed (comp_of conn) then `Parked
                else `Closed
            in
            (outcome, S.now_ns () - t0, TC.read TC.Id.ring_wakes - w0))
      in
      Alcotest.(check bool)
        (label ^ ": Connection_closed without parking")
        true (outcome = `Closed);
      Alcotest.(check int) (label ^ ": no wakeup") 0 wakes;
      Alcotest.(check bool)
        (Printf.sprintf "%s: within the window (%dns)" label dt)
        true (dt <= ctx_switch ()))
    [ ("bounce", T.ring_bounce); ("close", T.close_conn) ]

(* ---- Ring worker: spin for what a park costs -----------------------------
   After its nap comes up empty the worker keeps polling, with backoff,
   for [syscall_send + syscall_select] more: the doorbell syscall and
   the select a park would add to the next request. *)

let park_cost () =
  Platform.Cost_model.current.syscall_send
  + Platform.Cost_model.current.syscall_select

(* Submit [cmd] and watch its reply land in the completion ring rather
   than parking on it: the drain that published it is over, so the
   worker's idle window starts about now. The reply stays queued for
   [CS.await]. *)
let reply_landed c st cmd =
  let ra = rings_of c in
  CS.submit st cmd;
  while T.ring_window ra (fun () -> Transport.Ring.is_empty ra.T.ra_comp) do
    S.sleep_ns 100
  done

let sub_armed c =
  let ra = rings_of c in
  T.ring_window ra (fun () -> Transport.Ring.consumer_armed ra.T.ra_sub)

let test_ring_worker_spin_drains () =
  with_plib_server ~rings:true (fun c ->
    ignore (CS.set c "k" "v");
    idle ();
    let st = CS.stream c in
    let cmd = P.Gets [ "k" ] in
    reply_landed c st cmd;
    (* past the nap, inside the rest of the window; the armed flag is
       watched all the way *)
    let until = S.now_ns () + ctx_switch () + park_cost () - 300 in
    let armed = ref false in
    while S.now_ns () < until do
      armed := !armed || sub_armed c;
      S.sleep_ns 50
    done;
    let b0 = TC.read TC.Id.ring_doorbells and d0, _ = drains () in
    CS.submit st cmd;
    check_hit "reply before the window" "v" (CS.await st cmd);
    check_hit "reply from inside the window" "v" (CS.await st cmd);
    Alcotest.(check bool) "submission ring never armed" false !armed;
    Alcotest.(check int) "no doorbell" 0 (TC.read TC.Id.ring_doorbells - b0);
    Alcotest.(check int) "a spin poll drains it" 1 (fst (drains ()) - d0))

let test_ring_worker_parks_after_window () =
  with_plib_server ~rings:true (fun c ->
    ignore (CS.set c "k" "v");
    ignore (CS.set c "late" "after the window");
    idle ();
    let st = CS.stream c in
    reply_landed c st (P.Gets [ "k" ]);
    check_hit "reply before the window" "v" (CS.await st (P.Gets [ "k" ]));
    S.sleep_ns (2 * (ctx_switch () + park_cost ()));
    Alcotest.(check bool) "armed once the window ran out" true (sub_armed c);
    let b0 = TC.read TC.Id.ring_doorbells in
    let cmd = P.Gets [ "late" ] in
    CS.submit st cmd;
    Alcotest.(check int) "exactly one doorbell" 1
      (TC.read TC.Id.ring_doorbells - b0);
    check_hit "the parked worker serves it" "after the window"
      (CS.await st cmd);
    Alcotest.(check int) "and no other" 1 (TC.read TC.Id.ring_doorbells - b0))

(* Stomp the producer tail past the ring's capacity: the worker's next
   validated peek fails and it bounces the connection. *)
let forge_overfill c =
  let ra = rings_of c in
  let sub = ra.T.ra_sub in
  T.ring_window ra (fun () ->
    Region.write_i64 (Transport.Ring.region sub) (Transport.Ring.tail_word sub)
      (Transport.Ring.head sub + 1_000))

let test_ring_worker_releases_while_spinning () =
  List.iter
    (fun (label, kill) ->
      let kills = TC.read TC.Id.ring_kills in
      let gone, kept, killed =
        with_plib_conns ~rings:true ~n:2 (fun cs ->
          let c1 = List.nth cs 0 and c2 = List.nth cs 1 in
          ignore (CS.set c2 "k" "v");
          idle ();
          let st = CS.stream c1 in
          let cmd = P.Gets [ "k" ] in
          reply_landed c1 st cmd;
          check_hit (label ^ ": reply") "v" (CS.await st cmd);
          S.sleep_ns (ctx_switch () + (park_cost () / 2));
          Alcotest.(check bool) (label ^ ": worker still polling") false
            (sub_armed c1);
          kill c1;
          (* the bystander on the same worker is served on *)
          (match CS.get c2 "k" with
           | Some r ->
             Alcotest.(check string) (label ^ ": bystander served") "v"
               r.Mc_core.Store.value
           | None -> Alcotest.fail (label ^ ": bystander lost its hit"));
          let rows = CS.stats ~arg:"rings" c2 in
          let listed c =
            List.mem_assoc
              (Printf.sprintf "rings:conn%d:ops" c.CS.conn.T.cid)
              rows
          in
          (listed c1, listed c2, TC.read TC.Id.ring_kills - kills))
      in
      Alcotest.(check bool) (label ^ ": connection released") false gone;
      Alcotest.(check bool) (label ^ ": bystander still listed") true kept;
      Alcotest.(check int) (label ^ ": ring kills")
        (if label = "bounce" then 1 else 0)
        killed)
    [ ("quit", CS.quit); ("bounce", forge_overfill) ]

(* A request and a malformed frame in one send: every transport answers
   the request, then reports the garbage, and the connection's next
   request is served as usual. Garbage left buffered would never be
   reported, and the next request would be read behind it. *)
let test_request_then_garbage () =
  List.iter
    (fun rings ->
      let label = if rings then "ring" else "socket" in
      with_plib_server ~rings (fun c ->
        ignore (CS.set c "k" "v");
        let cmd = P.Gets [ "k" ] in
        T.client_send c.CS.conn
          (Mc_protocol.Binary.encode_command cmd ^ String.make 24 '\000');
        let st = CS.stream c in
        check_hit (label ^ ": the request") "v" (CS.await st cmd);
        (* the binary codec reports garbage as an error-status frame *)
        Alcotest.(check bool) (label ^ ": the garbage reported") true
          (CS.await st P.Noop = P.Error);
        match CS.get c "k" with
        | Some r ->
          Alcotest.(check string) (label ^ ": next request") "v"
            r.Mc_core.Store.value
        | None -> Alcotest.fail (label ^ ": next request missed")))
    [ false; true ]

(* The ring directory holds 64 connections. The 65th connect is refused
   cleanly, counted, and carves nothing out of the heap; once a
   connection closes, its row serves the next connect. *)
let test_ring_directory_full () =
  let refused = TC.read TC.Id.ring_refused in
  with_plib_srv ~rings:true (fun plib name ->
    let cs = List.init 64 (fun _ -> CS.connect ~name ()) in
    let used () =
      Shm.Region.kernel_mode (fun () ->
        let heap = Cl.Plib.heap plib in
        Ralloc.flush_thread_cache heap;
        Ralloc.used_bytes heap)
    in
    let before = used () in
    (match CS.connect ~name () with
     | _ -> Alcotest.fail "the 65th connection was accepted"
     | exception Failure _ -> ());
    Alcotest.(check int) "the refusal carved nothing" before (used ());
    Alcotest.(check int) "counted" 1 (TC.read TC.Id.ring_refused - refused);
    Alcotest.(check (option string)) "listed in stats rings" (Some "1")
      (List.assoc_opt "ring_refused" (Cl.Plib.stats ~arg:"rings" plib)
       |> Option.map (fun v -> string_of_int (int_of_string v - refused)));
    CS.quit (List.nth cs 1);
    idle ();
    match CS.connect ~name () with
    | _ -> ()
    | exception Failure m -> Alcotest.fail ("a freed row was not reused: " ^ m))

(* ---- Vkey slots under ring connections ---------------------------------
   Each connection seals its rings under a vkey of its own, and a
   machine has 12 hardware slots to back them: past 12 connections the
   worker's binds move slots from vkey to vkey. A client holds its
   connection's rights only inside a window. *)

let test_ring_64_conns_one_worker () =
  let ev0 = Pku.Vpkey.evictions () in
  let ok =
    with_plib_srv ~rings:true (fun plib name ->
      let g0 = TC.read TC.Id.gate_violations in
      let conns = List.init 64 (fun _ -> CS.connect ~name ()) in
      let ok = Array.make 64 false in
      List.mapi
        (fun i c ->
          S.spawn (fun () ->
            let key = Printf.sprintf "conn-%02d" i in
            let value = Printf.sprintf "value-%02d" i in
            ok.(i) <-
              CS.set c key value = Mc_core.Store.Stored
              && Option.map (fun r -> r.Mc_core.Store.value) (CS.get c key)
                 = Some value))
        conns
      |> List.iter S.join;
      Alcotest.(check int) "no gate violation" g0
        (TC.read TC.Id.gate_violations);
      Alcotest.(check bool) "library healthy" true
        (Hodor.Library.health (Cl.Plib.library plib) = Hodor.Library.Healthy);
      Pku.Vpkey.check_invariants ();
      ok)
  in
  Array.iteri
    (fun i ok ->
      Alcotest.(check bool) (Printf.sprintf "connection %d round trip" i) true
        ok)
    ok;
  Alcotest.(check bool) "slots moved between vkeys" true
    (Pku.Vpkey.evictions () > ev0)

(* The attack on a grant that outlives its window: client 1 stores its
   key and closes its window; the other twelve connections' binds then
   move the slots, so whatever slot client 1 once held now backs some
   other connection's rings. Client 1's thread reads every
   connection's submission ring header and forges a request into each
   ring, connection 11's among them. *)
let test_ring_stale_grant_faults () =
  let ev0 = Pku.Vpkey.evictions () in
  with_plib_srv ~rings:true (fun _ name ->
    let conns = Array.init 13 (fun _ -> CS.connect ~name ()) in
    let key i = Printf.sprintf "conn-%02d" i in
    let value i = Printf.sprintf "value-%02d" i in
    let others_done = ref 0 and attempts = ref [] in
    let faults f =
      match f () with
      | _ -> false
      | exception Pku.Fault.Protection_fault _ -> true
    in
    let forged =
      Mc_protocol.Binary.encode_command
        (P.Set
           { P.key = key 10; flags = 0; exptime = 0; data = "forged";
             noreply = false })
    in
    let client1 =
      S.spawn (fun () ->
        Alcotest.(check bool) "client 1 stores" true
          (CS.set conns.(0) (key 0) (value 0) = Mc_core.Store.Stored);
        let deadline = S.now_ns () + 10_000_000 in
        while !others_done < 12 && S.now_ns () < deadline do
          S.sleep_ns 1_000
        done;
        attempts :=
          Array.to_list conns
          |> List.mapi (fun j c ->
            let sub = (rings_of c).T.ra_sub in
            ( j + 1,
              faults (fun () -> Transport.Ring.tail sub),
              faults (fun () ->
                Transport.Ring.produce sub ~stamp:(S.now_ns ()) forged) )))
    in
    Array.to_list conns
    |> List.tl
    |> List.mapi (fun i c ->
      S.spawn (fun () ->
        let i = i + 1 in
        Alcotest.(check bool) (Printf.sprintf "client %d stores" (i + 1)) true
          (CS.set c (key i) (value i) = Mc_core.Store.Stored);
        incr others_done))
    |> List.iter S.join;
    S.join client1;
    Alcotest.(check bool) "the binds moved slots" true
      (Pku.Vpkey.evictions () > ev0);
    Alcotest.(check int) "every ring touched" 13 (List.length !attempts);
    List.iter
      (fun (j, read, forge) ->
        Alcotest.(check bool)
          (Printf.sprintf "client 1 reading ring %d faults" j) true read;
        Alcotest.(check bool)
          (Printf.sprintf "client 1 forging into ring %d faults" j) true forge)
      !attempts;
    Array.iteri
      (fun i c ->
        Alcotest.(check (option string))
          (Printf.sprintf "connection %d keeps its own value" (i + 1))
          (Some (value i))
          (Option.map (fun r -> r.Mc_core.Store.value) (CS.get c (key i))))
      conns)

let ring_server_tests =
  [ Alcotest.test_case "lone request drains at once" `Quick
      test_ring_lone_request_no_wait;
    Alcotest.test_case "backlog drains in one crossing" `Quick
      test_ring_backlog_one_drain;
    Alcotest.test_case "nap, then arm and park" `Quick test_ring_nap_then_park;
    Alcotest.test_case "seeded bursts and idle gaps" `Quick
      test_ring_seeded_bursts;
    Alcotest.test_case "client spin takes a prompt reply" `Quick
      test_ring_client_spin_takes_reply;
    Alcotest.test_case "client parks after the window" `Quick
      test_ring_client_parks_after_window;
    Alcotest.test_case "client closed while spinning" `Quick
      test_ring_client_closed_while_spinning;
    Alcotest.test_case "worker spin drains a late request" `Quick
      test_ring_worker_spin_drains;
    Alcotest.test_case "worker parks after the window" `Quick
      test_ring_worker_parks_after_window;
    Alcotest.test_case "worker releases while spinning" `Quick
      test_ring_worker_releases_while_spinning;
    Alcotest.test_case "request then garbage in one send" `Quick
      test_request_then_garbage;
    Alcotest.test_case "a full ring directory refuses cleanly" `Quick
      test_ring_directory_full;
    Alcotest.test_case "64 conns on one worker" `Quick
      test_ring_64_conns_one_worker;
    Alcotest.test_case "stale grant faults" `Quick
      test_ring_stale_grant_faults ]

let () =
  Alcotest.run "transport"
    [ ( "sockets",
        [ Alcotest.test_case "connect/accept" `Quick
            test_connect_accept_roundtrip;
          Alcotest.test_case "unknown service" `Quick test_connect_unknown_fails;
          Alcotest.test_case "latency model" `Quick test_messages_cost_latency;
          Alcotest.test_case "pipe" `Quick test_pipe ] );
      ( "server",
        [ Alcotest.test_case "binary protocol ops" `Quick test_server_binary_ops;
          Alcotest.test_case "ascii protocol ops" `Quick test_server_ascii_ops;
          Alcotest.test_case "parse error handling" `Quick
            test_server_parse_error_keeps_connection;
          Alcotest.test_case "8 clients, 2 workers" `Quick
            test_many_clients_two_workers;
          Alcotest.test_case "noreply suppression" `Quick
            test_noreply_suppresses_response;
          Alcotest.test_case "largest value over both codecs" `Quick
            test_server_largest_value ] );
      ( "byte-stream semantics",
        [ Alcotest.test_case "fragmented request" `Quick
            test_fragmented_request_reassembled;
          Alcotest.test_case "pipelined requests" `Quick
            test_pipelined_requests_one_chunk;
          Alcotest.test_case "binary fragmentation" `Quick
            test_binary_fragmentation ] );
      ( "shared rings",
        [ Alcotest.test_case "produce/consume roundtrip" `Quick
            test_ring_roundtrip;
          Alcotest.test_case "multi-slot chunking" `Quick test_ring_chunking;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "backpressure when full" `Quick
            test_ring_backpressure;
          Alcotest.test_case "doorbell and death flags" `Quick
            test_ring_doorbell_and_death;
          Alcotest.test_case "forgeries detected" `Quick
            test_ring_forgery_detected;
          Alcotest.test_case "validation toggle" `Quick
            test_ring_validation_toggle;
          Alcotest.test_case "recover truncates torn" `Quick
            test_ring_recover_truncates_torn;
          Alcotest.test_case "reattach" `Quick test_ring_attach ] );
      ("ring server", ring_server_tests) ]
