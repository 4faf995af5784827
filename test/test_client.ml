(** The classic (libmemcached drop-in) API over both backends, the
    strict-configuration migration aid, the immediate-callback async
    interface, and the slim Direct API. *)

module Cl = Core.Client.Make (Vm.Sync)
module Srv = Mc_server.Server.Make (Vm.Sync) (Cl.T)
module Process = Simos.Process
open Core.Errors

let fresh_id = ref 0

(* Build one client of each backend inside a vm and run [f] on both. *)
let on_both_backends f =
  incr fresh_id;
  let id = !fresh_id in
  let owner = Process.make ~uid:1000 "bk" in
  let plib =
    Cl.Plib.create
      ~path:(Printf.sprintf "/shm/client-test-%d" id)
      ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink (Printf.sprintf "/shm/client-test-%d" id);
      Hodor.Library.release (Cl.Plib.library plib))
    (fun () ->
      let vm = Vm.create () in
      let name = Printf.sprintf "client-test-%d" id in
      ignore (Vm.spawn vm ~name:"main" (fun () ->
        let srv =
          Srv.start
            ~cfg:{ Mc_server.Server.default_config with workers = 2 }
            ~name ()
        in
        let sock =
          Cl.memcached_create
            (Cl.Socket_backend (Cl.Sock.connect ~name ()))
        in
        let pl = Cl.memcached_create (Cl.Plib_backend plib) in
        f sock;
        f pl;
        Srv.stop srv));
      Vm.run vm)

let test_full_api_equivalence () =
  on_both_backends (fun st ->
    Alcotest.(check bool) "set" true
      (Cl.memcached_set st ~flags:7 "k" "v" = MEMCACHED_SUCCESS);
    (match Cl.memcached_get st "k" with
     | Ok (v, f) ->
       Alcotest.(check string) "get value" "v" v;
       Alcotest.(check int) "get flags" 7 f
     | Error _ -> Alcotest.fail "get");
    Alcotest.(check bool) "get miss" true
      (Cl.memcached_get st "missing" = Error MEMCACHED_NOTFOUND);
    Alcotest.(check bool) "add existing" true
      (Cl.memcached_add st "k" "w" = MEMCACHED_NOTSTORED);
    Alcotest.(check bool) "add fresh" true
      (Cl.memcached_add st "k2" "w" = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "replace" true
      (Cl.memcached_replace st "k2" "x" = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "replace missing" true
      (Cl.memcached_replace st "zz" "x" = MEMCACHED_NOTSTORED);
    Alcotest.(check bool) "append" true
      (Cl.memcached_append st "k2" "!" = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "prepend" true
      (Cl.memcached_prepend st "k2" "?" = MEMCACHED_SUCCESS);
    (match Cl.memcached_get st "k2" with
     | Ok (v, _) -> Alcotest.(check string) "concat" "?x!" v
     | Error _ -> Alcotest.fail "concat get");
    (* gets + cas *)
    (match Cl.memcached_gets st "k" with
     | Ok (_, _, cas) ->
       Alcotest.(check bool) "cas ok" true
         (Cl.memcached_cas st ~cas "k" "v2" = MEMCACHED_SUCCESS);
       Alcotest.(check bool) "stale cas" true
         (Cl.memcached_cas st ~cas "k" "v3" = MEMCACHED_DATA_EXISTS)
     | Error _ -> Alcotest.fail "gets");
    (* counters *)
    ignore (Cl.memcached_set st "n" "5");
    Alcotest.(check bool) "incr" true
      (Cl.memcached_increment st "n" 10L = Ok 15L);
    Alcotest.(check bool) "decr" true
      (Cl.memcached_decrement st "n" 14L = Ok 1L);
    Alcotest.(check bool) "incr missing" true
      (Cl.memcached_increment st "none" 1L = Error MEMCACHED_NOTFOUND);
    (* delete, touch, flush *)
    Alcotest.(check bool) "delete" true
      (Cl.memcached_delete st "k" = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "delete missing" true
      (Cl.memcached_delete st "k" = MEMCACHED_NOTFOUND);
    Alcotest.(check bool) "touch" true
      (Cl.memcached_touch st "k2" 100 = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "stat" true
      (List.mem_assoc "curr_items" (Cl.memcached_stat st));
    Alcotest.(check bool) "flush" true
      (Cl.memcached_flush st = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "flushed" true
      (Cl.memcached_get st "k2" = Error MEMCACHED_NOTFOUND);
    (* what the codecs refuse, the library refuses too: keys of 1 to
       250 bytes, values of at most 1 MiB *)
    let long_key = String.make 251 'k' in
    Alcotest.(check bool) "251-byte key refused" true
      (Cl.memcached_set st long_key "v" = MEMCACHED_NOTSTORED);
    Alcotest.(check bool) "251-byte key misses" true
      (Cl.memcached_get st long_key = Error MEMCACHED_NOTFOUND);
    Alcotest.(check bool) "empty key refused" true
      (Cl.memcached_set st "" "v" = MEMCACHED_NOTSTORED);
    Alcotest.(check bool) "empty key cannot be deleted" true
      (Cl.memcached_delete st "" = MEMCACHED_NOTFOUND);
    Alcotest.(check bool) "250-byte key stored" true
      (Cl.memcached_set st (String.make 250 'k') "v" = MEMCACHED_SUCCESS);
    Alcotest.(check bool) "oversize value refused" true
      (Cl.memcached_set st "big"
         (String.make (Mc_protocol.Types.max_data_bytes + 1) 'b')
       = MEMCACHED_NOTSTORED);
    Alcotest.(check bool) "oversize value left nothing" true
      (Cl.memcached_get st "big" = Error MEMCACHED_NOTFOUND))

let test_behaviors_nop_vs_strict () =
  on_both_backends (fun st ->
    (* default: configuration calls are accepted everywhere *)
    Alcotest.(check bool) "behavior accepted" true
      (Cl.memcached_behavior_set st Cl.BEHAVIOR_TCP_NODELAY 1
       = MEMCACHED_SUCCESS));
  (* strict mode flags them on the plib backend only *)
  incr fresh_id;
  let owner = Process.make ~uid:1000 "bk" in
  let plib =
    Cl.Plib.create
      ~path:(Printf.sprintf "/shm/strict-%d" !fresh_id)
      ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () -> Hodor.Library.release (Cl.Plib.library plib))
    (fun () ->
      let st = Cl.memcached_create (Cl.Plib_backend plib) in
      Cl.memcached_strict_configuration st true;
      match Cl.memcached_behavior_set st Cl.BEHAVIOR_BINARY_PROTOCOL 1 with
      | MEMCACHED_NOT_SUPPORTED _ -> ()
      | _ -> Alcotest.fail "strict mode must flag network behaviors")

let test_mget_callback_immediate () =
  on_both_backends (fun st ->
    ignore (Cl.memcached_set st "a" "1");
    ignore (Cl.memcached_set st "b" "2");
    let seen = ref [] in
    let rc =
      Cl.memcached_mget_execute st [ "a"; "missing"; "b" ]
        ~callback:(fun ~key ~value ~flags:_ ->
          seen := (key, value) :: !seen)
    in
    Alcotest.(check bool) "rc" true (rc = MEMCACHED_SUCCESS);
    Alcotest.(check (list (pair string string)))
      "callback saw exactly the hits, in order"
      [ ("a", "1"); ("b", "2") ]
      (List.rev !seen))

let test_socket_disconnect_raises () =
  incr fresh_id;
  let name = Printf.sprintf "client-dc-%d" !fresh_id in
  let vm = Vm.create () in
  ignore (Vm.spawn vm ~name:"main" (fun () ->
    let srv =
      Srv.start ~cfg:{ Mc_server.Server.default_config with workers = 1 }
        ~name ()
    in
    let c = Cl.Sock.connect ~name () in
    ignore (Cl.Sock.set c "k" "v");
    Srv.stop srv;
    (* the server is gone: the next op must fail loudly, not hang *)
    (match Cl.Sock.get c "k" with
     | _ -> Alcotest.fail "expected a connection failure"
     | exception Cl.T.Connection_closed -> ()
     | exception Vm.Sync.Closed -> ())));
  Vm.run vm

(* The open-loop stream parses replies off whatever the receives
   deliver: three replies in one receive, then the fourth split across
   two receives (the second also carrying the fifth). Each await must
   return its own reply, whole and in submission order. *)
let test_stream_reply_boundaries () =
  let module T = Cl.T in
  let module P = Mc_protocol.Types in
  List.iter
    (fun protocol ->
      incr fresh_id;
      let name = Printf.sprintf "client-stream-%d" !fresh_id in
      let cmds = List.init 5 (fun i -> P.Gets [ Printf.sprintf "k%d" i ]) in
      let value i = Printf.sprintf "value-%d" i in
      let reply i cmd =
        let resp =
          P.Values
            { with_cas = true;
              vals =
                [ { P.v_key = Printf.sprintf "k%d" i; v_flags = 0;
                    v_cas = Int64.of_int (i + 1); v_data = value i } ] }
        in
        match protocol with
        | Cl.Sock.Ascii -> Mc_protocol.Ascii.encode_response resp
        | Cl.Sock.Binary -> Mc_protocol.Binary.encode_reply ~for_cmd:cmd resp
      in
      let vm = Vm.create () in
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let l = T.listen ~name in
           let inbox = Vm.Sync.chan () in
           let server =
             Vm.Sync.spawn (fun () ->
               let conn = T.accept l ~inbox in
               List.iter (fun _ -> ignore (T.worker_recv inbox)) cmds;
               let rs = List.mapi reply cmds in
               let cat l = String.concat "" l in
               let head = cat (List.filteri (fun i _ -> i < 3) rs) in
               let tail = cat (List.filteri (fun i _ -> i >= 3) rs) in
               let cut = String.length (List.nth rs 3) / 2 in
               T.server_send conn head;
               T.server_send conn (String.sub tail 0 cut);
               T.server_send conn
                 (String.sub tail cut (String.length tail - cut)))
           in
           let st = Cl.Sock.stream (Cl.Sock.connect ~protocol ~name ()) in
           List.iter (Cl.Sock.submit st) cmds;
           List.iteri
             (fun i cmd ->
               match Cl.Sock.await st cmd with
               | P.Values { vals = [ v ]; _ } ->
                 Alcotest.(check string) (Printf.sprintf "reply %d" i)
                   (value i) v.P.v_data
               | _ -> Alcotest.fail (Printf.sprintf "reply %d: not a hit" i))
             cmds;
           Vm.Sync.join server;
           T.close_listener l));
      Vm.run vm)
    [ Cl.Sock.Binary; Cl.Sock.Ascii ]

let test_direct_api () =
  incr fresh_id;
  let module RCl = Core.Client.Make (Platform.Real_sync) in
  let owner = Process.make ~uid:1000 "bk" in
  let plib =
    RCl.Plib.create
      ~path:(Printf.sprintf "/shm/direct-%d" !fresh_id)
      ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () -> Hodor.Library.release (RCl.Plib.library plib))
    (fun () ->
      (match RCl.Direct.get "k" with
       | _ -> Alcotest.fail "uninitialised Direct must raise"
       | exception RCl.Direct.Not_initialized -> ());
      RCl.Direct.memcached_init plib;
      Alcotest.(check bool) "set" true
        (RCl.Direct.set "k" "v" = Mc_core.Store.Stored);
      (match RCl.Direct.get "k" with
       | Some r -> Alcotest.(check string) "get" "v" r.Mc_core.Store.value
       | None -> Alcotest.fail "hit");
      Alcotest.(check bool) "incr" true
        (RCl.Direct.set "n" "1" = Mc_core.Store.Stored
         && RCl.Direct.incr "n" 1L = Mc_core.Store.Counter 2L);
      Alcotest.(check bool) "delete" true (RCl.Direct.delete "k");
      RCl.Direct.flush_all ();
      Alcotest.(check bool) "flushed" true (RCl.Direct.get "n" = None))

let () =
  Alcotest.run "client"
    [ ( "classic api",
        [ Alcotest.test_case "full equivalence on both backends" `Quick
            test_full_api_equivalence;
          Alcotest.test_case "behaviors / strict mode" `Quick
            test_behaviors_nop_vs_strict;
          Alcotest.test_case "mget immediate callback" `Quick
            test_mget_callback_immediate ] );
      ( "open-loop stream",
        [ Alcotest.test_case "replies across receive boundaries" `Quick
            test_stream_reply_boundaries ] );
      ( "direct api",
        [ Alcotest.test_case "slim interface" `Quick test_direct_api ] );
      ( "failure paths",
        [ Alcotest.test_case "socket disconnect" `Quick
            test_socket_disconnect_raises ] ) ]
