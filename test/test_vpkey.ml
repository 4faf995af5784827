(** Virtual pkey layer: unbounded vkeys multiplexed onto the 16
    hardware slots — slot LRU eviction, quarantine re-tag, lazy
    re-bind, grant windows, ownership checks. *)

module Vpkey = Pku.Vpkey
module Pkey = Pku.Pkey
module Pkru = Pku.Pkru
module Region = Shm.Region

(* Each case runs on a fresh machine, with this thread's pkru clear. *)
let with_clean f =
  Machine.run (Machine.create ()) (fun () ->
    Pkru.reset_thread ();
    Fun.protect ~finally:Pkru.reset_thread f)

(* A one-page region owned by a vkey: tagged to the vkey's current
   hardware mapping (quarantine while unbound) and re-tagged on every
   eviction/rebind, exactly as the tenant vaults do. *)
let attach_region vk ~name ~payload =
  let r =
    Region.kernel_mode (fun () ->
      Region.create ~name ~size:Region.page_size ~pkey:Pkey.default ())
  in
  Vpkey.attach_retag vk (fun hw ->
    Region.kernel_mode (fun () ->
      Region.tag_range r ~off:0 ~len:Region.page_size ~pkey:hw));
  Region.kernel_mode (fun () -> Region.write_string r ~off:0 payload);
  r

let readable r ~len =
  match Region.read_string r ~off:0 ~len with
  | _ -> true
  | exception Pku.Fault.Protection_fault _ -> false

(* ---- allocation ------------------------------------------------------- *)

let test_alloc_free () =
  with_clean @@ fun () ->
  let a = Vpkey.alloc () in
  let b = Vpkey.alloc () in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "two live" 2 (Vpkey.live_vkeys ());
  Alcotest.(check bool) "unbound at birth" true (Vpkey.hw_key a = None);
  Vpkey.free a;
  Alcotest.(check int) "one live" 1 (Vpkey.live_vkeys ());
  Alcotest.check_raises "double free" (Vpkey.Unknown_vkey a) (fun () ->
    Vpkey.free a);
  Alcotest.check_raises "bind after free" (Vpkey.Unknown_vkey a) (fun () ->
    ignore (Vpkey.bind a));
  Vpkey.check_invariants ()

let test_restore_idempotent () =
  with_clean @@ fun () ->
  Vpkey.restore ~id:7 ~owner:4242;
  Vpkey.restore ~id:7 ~owner:4242;
  Alcotest.(check int) "one live" 1 (Vpkey.live_vkeys ());
  Alcotest.(check int) "owner restored" 4242 (Vpkey.owner_of 7);
  Alcotest.(check bool) "restored unbound" true (Vpkey.hw_key 7 = None);
  (* fresh ids never collide with restored ones *)
  let fresh = Vpkey.alloc () in
  Alcotest.(check bool) "fresh id distinct" true (fresh <> 7);
  Vpkey.check_invariants ()

(* ---- slot multiplexing ------------------------------------------------ *)

let test_bind_beyond_cap_evicts () =
  with_clean @@ fun () ->
  Vpkey.set_hw_cap 4;
  let vks = List.init 10 (fun _ -> Vpkey.alloc ()) in
  let hws = Region.kernel_mode (fun () -> List.map Vpkey.bind vks) in
  List.iter
    (fun hw ->
      Alcotest.(check bool) "hw key valid" true (Pkey.is_valid hw))
    hws;
  Alcotest.(check bool) "cap respected" true (Vpkey.slots_in_use () <= 4);
  Alcotest.(check int) "all vkeys alive" 10 (Vpkey.live_vkeys ());
  Alcotest.(check bool) "evictions happened" true (Vpkey.evictions () >= 6);
  Alcotest.(check int) "every first bind is a miss" 10 (Vpkey.slot_misses ());
  (* rebinding a bound vkey is a hit, not a miss *)
  let last = List.nth vks 9 in
  let misses0 = Vpkey.slot_misses () in
  ignore (Region.kernel_mode (fun () -> Vpkey.bind last));
  Alcotest.(check int) "hot rebind: no miss" misses0 (Vpkey.slot_misses ());
  Vpkey.check_invariants ()

let test_exhaustion_without_eviction () =
  with_clean @@ fun () ->
  Defenses.with_off Vkey_eviction @@ fun () ->
  Vpkey.set_hw_cap 3;
  let vks = List.init 4 (fun _ -> Vpkey.alloc ()) in
  Region.kernel_mode (fun () ->
    List.iteri
      (fun i vk ->
        if i < 3 then ignore (Vpkey.bind vk)
        else
          Alcotest.check_raises "table full, eviction off" Pkey.Out_of_keys
            (fun () -> ignore (Vpkey.bind vk)))
      vks);
  Vpkey.check_invariants ()

let test_quarantine_and_lazy_rebind () =
  with_clean @@ fun () ->
  Vpkey.set_hw_cap 2;
  let a = Vpkey.alloc () and b = Vpkey.alloc () and c = Vpkey.alloc () in
  let ra = attach_region a ~name:"vpk-lazy-a" ~payload:"payload-A" in
  let _rb = attach_region b ~name:"vpk-lazy-b" ~payload:"payload-B" in
  let _rc = attach_region c ~name:"vpk-lazy-c" ~payload:"payload-C" in
  let hwa = Vpkey.with_grant a (fun hwa ->
    Alcotest.(check bool) "a readable while bound" true (readable ra ~len:9);
    hwa)
  in
  (* bind b then c: the 2-slot table evicts a *)
  ignore (Region.kernel_mode (fun () -> Vpkey.bind b));
  ignore (Region.kernel_mode (fun () -> Vpkey.bind c));
  Alcotest.(check bool) "a evicted" true (Vpkey.hw_key a = None);
  (* a's page is quarantined: even with a's old slot forced open in
     this thread's pkru, the read faults *)
  Pkru.wrpkru (Pkru.set_perm (Pkru.read ()) hwa Pkru.Enable);
  Alcotest.(check bool) "old grant useless post-evict" false
    (readable ra ~len:9);
  Pkru.reset_thread ();
  Alcotest.(check bool) "page quarantine-tagged" true
    (Region.pkey_of_page ra 0 = Vpkey.quarantine_key ());
  (* the next window lazily re-tags to the fresh slot and reopens
     access *)
  Vpkey.with_grant a (fun hwa' ->
    Alcotest.(check bool) "rebind re-tags" true
      (Region.pkey_of_page ra 0 = hwa');
    Alcotest.(check string) "payload intact" "payload-A"
      (Region.read_string ra ~off:0 ~len:9));
  Vpkey.check_invariants ()

(* ---- grant windows ---------------------------------------------------- *)

(* A window opens the vkey's slot for its body only: on return, and on
   a raise, pkru is exactly what it was before. *)
let test_window_restores_pkru () =
  with_clean @@ fun () ->
  let v = Vpkey.alloc () in
  let rv = attach_region v ~name:"vpk-win-v" ~payload:"win-payload" in
  let before = Pkru.read () in
  Vpkey.with_grant v (fun _ ->
    Alcotest.(check bool) "readable inside" true (readable rv ~len:11));
  Alcotest.(check int) "pkru restored on return" before (Pkru.read ());
  Alcotest.(check bool) "sealed after" false (readable rv ~len:11);
  (match Vpkey.with_grant v (fun _ -> failwith "body raised") with
   | () -> Alcotest.fail "the body's raise must propagate"
   | exception Failure _ -> ());
  Alcotest.(check int) "pkru restored on a raise" before (Pkru.read ());
  Vpkey.check_invariants ()

(* On one slot, a bind made while a window is open cannot take the
   slot: it refuses and is counted, and the window's vkey stays bound
   and readable. Once the window closes the slot moves, and the old
   vkey's pages are quarantined. *)
let test_pin_survives_churn () =
  with_clean @@ fun () ->
  Telemetry.Counters.reset ();
  Vpkey.set_hw_cap 1;
  let v = Vpkey.alloc () and churn = Vpkey.alloc () in
  let rv = attach_region v ~name:"vpk-pin-v" ~payload:"pinned-bytes" in
  let hw =
    Vpkey.with_grant v (fun hw ->
      Alcotest.check_raises "churn bind refused" Vpkey.All_slots_pinned
        (fun () -> ignore (Region.kernel_mode (fun () -> Vpkey.bind churn)));
      Alcotest.(check bool) "v still bound" true (Vpkey.hw_key v = Some hw);
      Alcotest.(check bool) "v still readable" true (readable rv ~len:12);
      hw)
  in
  Alcotest.(check int) "refusal counted" 1 (Vpkey.pin_refusals ());
  Alcotest.(check int) "telemetry refusals" 1
    (Telemetry.Counters.read Telemetry.Counters.Id.vpkey_pin_refusals);
  Alcotest.(check int) "no eviction while pinned" 0 (Vpkey.evictions ());
  let churn_hw = Region.kernel_mode (fun () -> Vpkey.bind churn) in
  Alcotest.(check int) "unpinned, the slot moves" hw churn_hw;
  Vpkey.with_grant churn (fun _ ->
    Alcotest.(check bool) "the slot's new window reads no old bytes" false
      (readable rv ~len:12));
  (* a vkey freed inside its window keeps the slot until the window
     closes, then hands it back without an eviction *)
  let evictions = Vpkey.evictions () in
  Vpkey.with_grant churn (fun _ ->
    Vpkey.free churn;
    Alcotest.check_raises "freed but still held" Vpkey.All_slots_pinned
      (fun () -> ignore (Region.kernel_mode (fun () -> Vpkey.bind v)));
    Vpkey.check_invariants ());
  Alcotest.(check int) "the slot comes back free" hw
    (Region.kernel_mode (fun () -> Vpkey.bind v));
  Alcotest.(check int) "no eviction for it" evictions (Vpkey.evictions ());
  Vpkey.check_invariants ()

(* The exit gate compares pkru with what the trampoline wrote on entry:
   a window inside the call restores exactly that, so the gate stays
   quiet and the caller leaves with the pkru it came in with. *)
let test_window_in_crossing_keeps_gate_quiet () =
  with_clean @@ fun () ->
  let lib =
    Hodor.Library.create ~name:"vpk-gate" ~owner_uid:1000 ()
  in
  Fun.protect ~finally:(fun () -> Hodor.Library.release lib) @@ fun () ->
  let v = Vpkey.alloc () in
  let rv = attach_region v ~name:"vpk-gate-v" ~payload:"in-the-call" in
  let violations () =
    Telemetry.Counters.read Telemetry.Counters.Id.gate_violations
  in
  let g0 = violations () and before = Pkru.read () in
  let read =
    Hodor.Trampoline.call lib (fun () ->
      Vpkey.with_grant v (fun _ -> Region.read_string rv ~off:0 ~len:11))
  in
  Alcotest.(check string) "read inside the call" "in-the-call" read;
  Alcotest.(check int) "no gate violation" g0 (violations ());
  Alcotest.(check bool) "library healthy" true
    (Hodor.Library.health lib = Hodor.Library.Healthy);
  Alcotest.(check int) "caller's pkru unchanged" before (Pkru.read ())

(* Rights stay with a window, not with a machine or a thread: a fresh
   machine, where the same vkey id names someone else's memory, opens
   nothing until a window of its own. *)
let test_fresh_machine_sees_no_rights () =
  Pkru.reset_thread ();
  Machine.run (Machine.create ()) (fun () ->
    let v = Vpkey.alloc () in
    let r = attach_region v ~name:"vpk-first-machine" ~payload:"first" in
    Vpkey.with_grant v (fun _ ->
      Alcotest.(check bool) "its window opens it" true (readable r ~len:5)));
  Machine.run (Machine.create ()) (fun () ->
    let v = Vpkey.alloc () in
    let r = attach_region v ~name:"vpk-other-machine" ~payload:"other" in
    ignore (Region.kernel_mode (fun () -> Vpkey.bind v));
    Alcotest.(check bool) "no right carried over" false (readable r ~len:5);
    Vpkey.with_grant v (fun _ ->
      Alcotest.(check bool) "its own window opens it" true
        (readable r ~len:5)))

(* ---- ownership -------------------------------------------------------- *)

let test_owner_checks () =
  with_clean @@ fun () ->
  let v = Vpkey.alloc ~owner:1042 () in
  Alcotest.(check int) "owner recorded" 1042 (Vpkey.owner_of v);
  Region.kernel_mode (fun () ->
    (match Vpkey.bind ~owner:1043 v with
     | _ -> Alcotest.fail "foreign bind must be denied"
     | exception Vpkey.Permission_denied _ -> ());
    ignore (Vpkey.bind ~owner:1042 v);
    (* uid 0 is the kernel-side bypass *)
    ignore (Vpkey.bind ~owner:0 v));
  Defenses.with_off Vkey_owner_checks (fun () ->
    ignore (Region.kernel_mode (fun () -> Vpkey.bind ~owner:1043 v)));
  Vpkey.check_invariants ()

(* ---- the acceptance sweep: 64 tenants on 16 hardware keys ------------- *)

let test_sixty_four_tenants_isolated () =
  with_clean @@ fun () ->
  let n = 64 in
  let tenants =
    Array.init n (fun i ->
      let uid = 9000 + i in
      let vk = Vpkey.alloc ~owner:uid () in
      let r =
        attach_region vk
          ~name:(Printf.sprintf "vpk-64-%02d" i)
          ~payload:(Printf.sprintf "tenant-%02d-secret" i)
      in
      (vk, uid, r))
  in
  Alcotest.(check int) "64 live vkeys" n (Vpkey.live_vkeys ());
  (* bind all 64 under their owners: far beyond the hw table, so the
     LRU must cycle; every bind still succeeds *)
  Array.iter
    (fun (vk, uid, _) ->
      ignore (Region.kernel_mode (fun () -> Vpkey.bind ~owner:uid vk)))
    tenants;
  Alcotest.(check bool) "slot table stayed within the hw budget" true
    (Vpkey.slots_in_use () <= 14);
  Alcotest.(check bool) "evictions forced" true (Vpkey.evictions () >= n - 14);
  (* every region is readable exactly under its owner's bound key:
     enable tenant i, check region i opens and a neighbour's stays
     shut, then drop the grant *)
  Array.iteri
    (fun i (vk, uid, r) ->
      Vpkey.with_grant ~owner:uid vk (fun _ ->
        Alcotest.(check string)
          (Printf.sprintf "tenant %d reads its own region" i)
          (Printf.sprintf "tenant-%02d-secret" i)
          (Region.read_string r ~off:0 ~len:16);
        let j = (i + 1) mod n in
        let _, _, rj = tenants.(j) in
        Alcotest.(check bool)
          (Printf.sprintf "tenant %d cannot read tenant %d" i j)
          false (readable rj ~len:16));
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d loses access when its window closes" i)
        false (readable r ~len:16))
    tenants;
  Vpkey.check_invariants ()

(* ---- counters --------------------------------------------------------- *)

let test_counters_mirror_telemetry () =
  with_clean @@ fun () ->
  Telemetry.Counters.reset ();
  Vpkey.set_hw_cap 2;
  let vks = List.init 5 (fun _ -> Vpkey.alloc ()) in
  Region.kernel_mode (fun () ->
    List.iter (fun vk -> ignore (Vpkey.bind vk)) vks);
  Alcotest.(check bool) "binds counted" true (Vpkey.binds () >= 5);
  Alcotest.(check int) "telemetry binds" (Vpkey.binds ())
    (Telemetry.Counters.read Telemetry.Counters.Id.vpkey_binds);
  Alcotest.(check int) "telemetry misses" (Vpkey.slot_misses ())
    (Telemetry.Counters.read Telemetry.Counters.Id.vpkey_slot_misses);
  Alcotest.(check int) "telemetry evictions" (Vpkey.evictions ())
    (Telemetry.Counters.read Telemetry.Counters.Id.vpkey_evictions)

(* ---- re-tag cost ----------------------------------------------------- *)

(* Inside a bare Vm run, with no Plib to wire anything, a slot miss
   charges one pkey_mprotect per range its re-tags walk, and a hit
   charges nothing. *)
let test_slot_miss_charges_retags () =
  with_clean @@ fun () ->
  Vpkey.set_hw_cap 1;
  let a = Vpkey.alloc () and b = Vpkey.alloc () in
  ignore (attach_region a ~name:"/shm/vpk-cost-a1" ~payload:"a1");
  ignore (attach_region a ~name:"/shm/vpk-cost-a2" ~payload:"a2");
  ignore (attach_region b ~name:"/shm/vpk-cost-b" ~payload:"b");
  let per = Platform.Cost_model.current.pkey_mprotect in
  let costs = ref [] in
  let vm = Vm.create () in
  ignore
    (Vm.spawn vm (fun () ->
       let charged f =
         let t0 = Vm.Sync.now_ns () in
         ignore (f ());
         costs := (Vm.Sync.now_ns () - t0) :: !costs
       in
       Region.kernel_mode (fun () ->
         charged (fun () -> Vpkey.bind a);
         charged (fun () -> Vpkey.bind b);
         charged (fun () -> Vpkey.bind b))));
  Vm.run vm;
  Alcotest.(check (list int))
    "miss re-tags a's 2 ranges; miss evicts a (2) and re-tags b (1); hit"
    [ 2 * per; 3 * per; 0 ] (List.rev !costs)

(* ---- deployments: one machine each ---------------------------------- *)

module T = Transport.Sock.Make (Vm.Sync)

(* Two machines in one Vm run, their threads interleaved bind by bind:
   each fills its own 12 slots without an eviction and counts only its
   own binds, and the same file path and listener name resolve to each
   machine's own. *)
let test_two_machines_one_run () =
  let vm = Vm.create () in
  let seen = Hashtbl.create 2 in
  let deployment tag uid () =
    let vks = List.init 12 (fun _ -> Vpkey.alloc ()) in
    Region.kernel_mode (fun () ->
      List.iter (fun vk -> ignore (Vpkey.bind vk); Vm.Sync.yield ()) vks);
    let r =
      Region.kernel_mode (fun () ->
        Region.create ~name:"/shm/deploy" ~size:Region.page_size
          ~pkey:Pkey.default ())
    in
    Simos.Sim_fs.create_file ~path:"/shm/deploy" ~owner:uid ~mode:0o600 r;
    let l = T.listen ~name:"svc" in
    let inbox = Vm.Sync.chan () in
    let server =
      Vm.Sync.spawn (fun () ->
        let conn = T.accept l ~inbox in
        ignore (T.worker_recv inbox);
        T.server_send conn tag)
    in
    Vm.Sync.yield ();
    let conn = T.connect ~name:"svc" in
    T.client_send conn "hello";
    let reply = T.client_recv conn in
    Vm.Sync.join server;
    Hashtbl.replace seen tag
      ( Vpkey.binds (), Vpkey.evictions (), Vpkey.slots_in_use (),
        Simos.Sim_fs.owner "/shm/deploy", reply )
  in
  List.iter
    (fun (tag, uid) ->
      Machine.run (Machine.create ()) (fun () ->
        ignore (Vm.spawn vm ~name:tag (deployment tag uid))))
    [ ("a", 1001); ("b", 1002) ];
  Vm.run vm;
  List.iter
    (fun (tag, uid) ->
      let binds, evictions, slots, owner, reply = Hashtbl.find seen tag in
      Alcotest.(check int) (tag ^ ": own binds only") 12 binds;
      Alcotest.(check int) (tag ^ ": no eviction") 0 evictions;
      Alcotest.(check int) (tag ^ ": 12 slots") 12 slots;
      Alcotest.(check int) (tag ^ ": own file") uid owner;
      Alcotest.(check string) (tag ^ ": own listener") tag reply)
    [ ("a", 1001); ("b", 1002) ]

let test_fresh_machine_leaks_nothing () =
  Machine.run (Machine.create ()) (fun () ->
    let vks = List.init 20 (fun _ -> Vpkey.alloc ()) in
    Region.kernel_mode (fun () ->
      List.iter (fun vk -> ignore (Vpkey.bind vk)) vks);
    Alcotest.(check int) "the filled machine's slots" 12
      (Vpkey.slots_in_use ()));
  Machine.run (Machine.create ()) (fun () ->
    Alcotest.(check int) "no slot in use" 0 (Vpkey.slots_in_use ());
    Alcotest.(check int) "no bind counted" 0 (Vpkey.binds ());
    Alcotest.(check int) "first pkey" 1 (Region.kernel_mode Pkey.alloc))

let () =
  Alcotest.run "vpkey"
    [ ( "allocation",
        [ Alcotest.test_case "alloc/free" `Quick test_alloc_free;
          Alcotest.test_case "restore idempotent" `Quick
            test_restore_idempotent ] );
      ( "slot table",
        [ Alcotest.test_case "bind beyond cap evicts" `Quick
            test_bind_beyond_cap_evicts;
          Alcotest.test_case "exhaustion with eviction off" `Quick
            test_exhaustion_without_eviction;
          Alcotest.test_case "quarantine + lazy rebind" `Quick
            test_quarantine_and_lazy_rebind ] );
      ( "grant windows",
        [ Alcotest.test_case "pkru restored on exit" `Quick
            test_window_restores_pkru;
          Alcotest.test_case "a pin survives churn" `Quick
            test_pin_survives_churn;
          Alcotest.test_case "quiet gate in a crossing" `Quick
            test_window_in_crossing_keeps_gate_quiet;
          Alcotest.test_case "fresh machine, no rights" `Quick
            test_fresh_machine_sees_no_rights ] );
      ( "ownership",
        [ Alcotest.test_case "owner checks" `Quick test_owner_checks ] );
      ( "scale",
        [ Alcotest.test_case "64 tenants on 16 hw keys" `Quick
            test_sixty_four_tenants_isolated ] );
      ( "counters",
        [ Alcotest.test_case "telemetry mirror" `Quick
            test_counters_mirror_telemetry ] );
      ( "re-tag cost",
        [ Alcotest.test_case "slot miss charges pkey_mprotect" `Quick
            test_slot_miss_charges_retags ] );
      ( "machines",
        [ Alcotest.test_case "two machines, one Vm run" `Quick
            test_two_machines_one_run;
          Alcotest.test_case "a fresh machine leaks nothing" `Quick
            test_fresh_machine_leaks_nothing ] ) ]
