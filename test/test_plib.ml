(** The protected-library memcached itself: protection boundary,
    crash isolation, restart persistence — the paper's §3 claims. *)

module Cl = Core.Client.Make (Platform.Real_sync)
module Plib = Cl.Plib
module Process = Simos.Process
module Store = Mc_core.Store

let fresh_id = ref 0

(* The heap is sealed outside library calls; inspection runs as the
   "kernel side", like a debugger would. *)
let check_inv p =
  Shm.Region.kernel_mode (fun () -> Plib.Store.check_invariants (Plib.store p))

let with_plib ?protection ?copy_args ?store_cfg f =
  incr fresh_id;
  let owner = Process.make ~uid:1000 "memcached-bk" in
  let cfg =
    match store_cfg with
    | Some c -> c
    | None ->
      { Store.default_config with hashpower = 8; lock_count = 16;
        lru_count = 4; stats_slots = 4 }
  in
  let path = Printf.sprintf "/shm/plib-test-%d" !fresh_id in
  let p =
    Plib.create ?protection ?copy_args ~store_cfg:cfg ~path
      ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p))
    (fun () -> f p ~owner)

let test_basic_ops () =
  with_plib (fun p ~owner:_ ->
    Alcotest.(check bool) "set" true (Plib.set p "k" "v" = Store.Stored);
    (match Plib.get p "k" with
     | Some r -> Alcotest.(check string) "get" "v" r.Store.value
     | None -> Alcotest.fail "hit expected");
    Alcotest.(check bool) "incr path" true
      (Plib.set p "n" "1" = Store.Stored && Plib.incr p "n" 41L = Store.Counter 42L);
    Alcotest.(check bool) "delete" true (Plib.delete p "k");
    Alcotest.(check bool) "stats has curr_items" true
      (List.mem_assoc "curr_items" (Plib.stats p));
    check_inv p)

let test_region_protected_outside_calls () =
  with_plib (fun p ~owner:_ ->
    ignore (Plib.set p "k" "v");
    Pku.Pkru.reset_thread ();
    (* application code outside any library call: the heap is sealed *)
    (match Shm.Region.read_u8 (Plib.region p) 0 with
     | _ -> Alcotest.fail "expected Protection_fault outside the library"
     | exception Pku.Fault.Protection_fault _ -> ());
    (* the very same thread can use the data through the library *)
    Alcotest.(check bool) "library call works" true (Plib.get p "k" <> None))

let test_unprotected_mode_region_open () =
  with_plib ~protection:Plib.Unprotected (fun p ~owner:_ ->
    ignore (Plib.set p "k" "v");
    (* no pkey gating in the no-Hodor configuration *)
    ignore (Shm.Region.read_u8 (Plib.region p) 0))

let test_client_euid_dance () =
  with_plib (fun p ~owner:_ ->
    let client = Process.make ~uid:2000 "client-app" in
    (* direct open with the client's own euid is denied... *)
    (match
       Simos.Sim_fs.open_region ~euid:(Process.uid client) (Plib.path p)
     with
    | _ -> Alcotest.fail "client must not open the store file itself"
    | exception Simos.Sim_fs.Eacces _ -> ());
    (* ...but linking the library performs the owner-euid open *)
    Plib.open_client p ~process:client;
    Process.with_process client (fun () ->
      Alcotest.(check bool) "client operates through the library" true
        (Plib.set p "from-client" "hello" = Store.Stored)))

let test_copy_in_insulates_from_mutation () =
  with_plib (fun p ~owner:_ ->
    let data = Bytes.of_string "original-value" in
    ignore (Plib.set_raw p (Bytes.of_string "k") data);
    (* the client scribbles on its buffer after the call: the store
       must hold the snapshot *)
    Bytes.fill data 0 (Bytes.length data) 'X';
    match Plib.get p "k" with
    | Some r -> Alcotest.(check string) "snapshot" "original-value" r.Store.value
    | None -> Alcotest.fail "hit expected")

let test_kill_mid_call_preserves_store () =
  with_plib (fun p ~owner:_ ->
    ignore (Plib.set p "stable" "yes");
    let victim = Process.make ~uid:2000 "doomed" in
    Process.with_process victim (fun () ->
      match
        Hodor.Trampoline.call (Plib.library p) (fun () ->
          (* SIGKILL lands while this thread holds the store's locks
             conceptually; the call must complete *)
          Process.kill ~now_ns:(Telemetry.Control.now_ns ()) victim;
          ignore
            (Plib.Store.set (Plib.store p) "from-dying-call" "done"))
      with
      | () -> Alcotest.fail "thread must die after completing the call"
      | exception Process.Process_killed _ -> ());
    (* the library survived: other processes keep working *)
    Alcotest.(check bool) "store intact" true (Plib.get p "stable" <> None);
    (match Plib.get p "from-dying-call" with
     | Some r ->
       Alcotest.(check string) "dying call's write persisted" "done"
         r.Store.value
     | None -> Alcotest.fail "the in-flight operation must have completed");
    check_inv p)

let test_crash_inside_library_poisons_store () =
  with_plib (fun p ~owner:_ ->
    (match
       Hodor.Trampoline.call (Plib.library p) (fun () -> failwith "wild ptr")
     with
    | () -> Alcotest.fail "expected failure"
    | exception Hodor.Trampoline.Library_call_failed _ -> ());
    (match Plib.get p "anything" with
     | _ -> Alcotest.fail "poisoned library must refuse calls"
     | exception Hodor.Library.Library_poisoned _ -> ()))

(* An image written while small items went to a bump-allocation tier
   sets root 2 and keeps those items inside the tier's regions, where
   Ralloc cannot free them. Restart refuses it before it registers
   anything, and the other root ids stay where images put them. *)
let test_restart_refuses_arena_image () =
  Alcotest.(check (list int)) "root ids" [ 0; 1; 2; 3; 4; 5 ]
    Core.Plib_store.
      [ root_primary; root_telemetry; root_retired_arena; root_tenants;
        root_rings; root_flight ];
  let disk = Filename.temp_file "plib-arena" ".img" in
  incr fresh_id;
  let path = Printf.sprintf "/shm/plib-arena-%d" !fresh_id in
  let p =
    Plib.create ~path ~size:(16 lsl 20) ~owner:(Process.make ~uid:1000 "bk1") ()
  in
  ignore (Plib.set p "k" "v");
  Shm.Region.kernel_mode (fun () ->
    let heap = Plib.heap p in
    Ralloc.set_root heap Core.Plib_store.root_retired_arena
      (Ralloc.alloc heap 16));
  Plib.shutdown p ~disk_path:disk;
  Fun.protect ~finally:(fun () -> Sys.remove disk) (fun () ->
    let path2 = path ^ "-2" in
    (match
       Plib.restart ~disk_path:disk ~path:path2
         ~owner:(Process.make ~uid:1000 "bk2") ()
     with
     | p2 ->
       Simos.Sim_fs.unlink path2;
       Hodor.Library.release (Plib.library p2);
       Alcotest.fail "restart accepted an image with bump-tier items"
     | exception Failure msg ->
       Alcotest.(check bool) "the refusal names the tier" true
         (String.starts_with ~prefix:"restart: heap image keeps small items"
            msg));
    Alcotest.(check bool) "no store file registered" false
      (Simos.Sim_fs.exists path2))

let test_shutdown_restart_preserves_data () =
  let disk = Filename.temp_file "plib" ".img" in
  incr fresh_id;
  let owner = Process.make ~uid:1000 "bk1" in
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  let path = Printf.sprintf "/shm/plib-restart-%d" !fresh_id in
  let p = Plib.create ~store_cfg:cfg ~path ~size:(16 lsl 20) ~owner () in
  for i = 0 to 199 do
    ignore (Plib.set p ~flags:i (Printf.sprintf "key%d" i) (Printf.sprintf "value%d" i))
  done;
  ignore (Plib.delete p "key7");
  let cas_before = (Option.get (Plib.get p "key8")).Store.cas in
  Plib.shutdown p ~disk_path:disk;
  (* a new bookkeeping process maps the file: everything is found
     through the persistent roots, no rebuild code runs *)
  let owner2 = Process.make ~uid:1000 "bk2" in
  let p2 =
    Plib.restart ~store_cfg:cfg ~disk_path:disk ~path:(path ^ "-2")
      ~owner:owner2 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink (path ^ "-2");
      Hodor.Library.release (Plib.library p2);
      Sys.remove disk)
    (fun () ->
      (match Plib.get p2 "key8" with
       | Some r ->
         Alcotest.(check string) "value survives" "value8" r.Store.value;
         Alcotest.(check int) "flags survive" 8 r.Store.flags
       | None -> Alcotest.fail "key8 must survive restart");
      Alcotest.(check (option string)) "deleted key stays deleted" None
        (Option.map (fun (r : Store.get_result) -> r.Store.value)
           (Plib.get p2 "key7"));
      Alcotest.(check int) "item count survives" 199
        (Shm.Region.kernel_mode (fun () ->
           Plib.Store.curr_items (Plib.store p2)));
      (* CAS continuity: new stores get fresh, larger uniques *)
      ignore (Plib.set p2 "key8" "rewritten");
      let cas_after = (Option.get (Plib.get p2 "key8")).Store.cas in
      Alcotest.(check bool) "cas continues upward" true
        (Int64.compare cas_after cas_before > 0);
      Shm.Region.kernel_mode (fun () ->
        Plib.Store.check_invariants (Plib.store p2)))

let test_maintain_enforces_watermark () =
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  with_plib ~store_cfg:cfg (fun p ~owner:_ ->
    (* fill close to the 16MB heap *)
    let i = ref 0 in
    while
      float_of_int (Ralloc.used_bytes (Plib.heap p))
      < 0.97 *. float_of_int (Ralloc.capacity (Plib.heap p))
      && !i < 100_000
    do
      incr i;
      ignore (Plib.set p (Printf.sprintf "f%d" !i) (String.make 800 'f'))
    done;
    Plib.maintain p;
    let used = float_of_int (Ralloc.used_bytes (Plib.heap p)) in
    let cap = float_of_int (Ralloc.capacity (Plib.heap p)) in
    Alcotest.(check bool) "cleaner brought usage under the low watermark" true
      (used <= 0.91 *. cap);
    check_inv p)

let test_two_processes_share_one_store () =
  with_plib (fun p ~owner:_ ->
    let p1 = Process.make ~uid:2001 "app1" in
    let p2 = Process.make ~uid:2002 "app2" in
    Process.with_process p1 (fun () -> ignore (Plib.set p "shared" "from-app1"));
    Process.with_process p2 (fun () ->
      match Plib.get p "shared" with
      | Some r ->
        Alcotest.(check string) "app2 sees app1's write" "from-app1"
          r.Store.value
      | None -> Alcotest.fail "cross-process sharing broken"))

let test_in_vm_full_stack () =
  (* the same library code driven by simulated threads *)
  let module VCl = Core.Client.Make (Vm.Sync) in
  let owner = Process.make ~uid:1000 "bk-vm" in
  let plib =
    VCl.Plib.create ~path:"/shm/plib-vm-test" ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink "/shm/plib-vm-test";
      Hodor.Library.release (VCl.Plib.library plib))
    (fun () ->
      let vm = Vm.create () in
      let total = Atomic.make 0 in
      for t = 1 to 4 do
        ignore (Vm.spawn vm (fun () ->
          for i = 1 to 50 do
            let k = Printf.sprintf "t%d-%d" t i in
            assert (VCl.Plib.set plib k k = Store.Stored);
            assert (VCl.Plib.get plib k <> None);
            Atomic.incr total
          done))
      done;
      Vm.run vm;
      Alcotest.(check int) "all vm ops succeeded" 200 (Atomic.get total);
      Alcotest.(check bool) "virtual time advanced" true (Vm.now vm > 0);
      Shm.Region.kernel_mode (fun () ->
        VCl.Plib.Store.check_invariants (VCl.Plib.store plib)))

(* The hybrid deployment of §6: remote clients over sockets and local
   clients through trampolines, one shared store. *)
let test_hybrid_socket_and_local_share () =
  let module VCl = Core.Client.Make (Vm.Sync) in
  let owner = Process.make ~uid:1000 "bk-hybrid" in
  let plib =
    VCl.Plib.create ~path:"/shm/plib-hybrid" ~size:(16 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink "/shm/plib-hybrid";
      Hodor.Library.release (VCl.Plib.library plib))
    (fun () ->
      let vm = Vm.create () in
      ignore (Vm.spawn vm ~name:"main" (fun () ->
        let srv = VCl.Plib.serve_remote plib ~name:"hybrid-svc" in
        (* a "remote" client over the socket path *)
        let remote = VCl.Sock.connect ~name:"hybrid-svc" () in
        assert (VCl.Sock.set remote "via-socket" "remote-write"
                = Mc_core.Store.Stored);
        (* a local client through the trampoline sees it instantly *)
        (match VCl.Plib.get plib "via-socket" with
         | Some r -> assert (r.Mc_core.Store.value = "remote-write")
         | None -> assert false);
        (* and vice versa *)
        assert (VCl.Plib.set plib "via-hodor" "local-write"
                = Mc_core.Store.Stored);
        (match VCl.Sock.get remote "via-hodor" with
         | Some r -> assert (r.Mc_core.Store.value = "local-write")
         | None -> assert false);
        VCl.Plib.stop_remote srv));
      Vm.run vm;
      Shm.Region.kernel_mode (fun () ->
        VCl.Plib.Store.check_invariants (VCl.Plib.store plib)))

let test_plib_resize () =
  let cfg =
    { Store.default_config with hashpower = 4; lock_count = 8; lru_count = 2;
      stats_slots = 2 }
  in
  with_plib ~store_cfg:cfg (fun p ~owner:_ ->
    for i = 0 to 299 do
      ignore (Plib.set p (Printf.sprintf "r%d" i) "v")
    done;
    Alcotest.(check bool) "resized" true (Plib.maybe_resize p);
    for i = 0 to 299 do
      if Plib.get p (Printf.sprintf "r%d" i) = None then
        Alcotest.fail "key lost"
    done;
    check_inv p)

(* Deterministic fault injection inside the simulation: four simulated
   tenants hammer the store, one is SIGKILLed mid-run; everyone else
   finishes and the store's invariants hold. The VM makes the
   interleaving bit-reproducible. *)
let test_vm_fault_injection_deterministic () =
  let run () =
    let module VCl = Core.Client.Make (Vm.Sync) in
    incr fresh_id;
    let owner = Process.make ~uid:1000 "bk-fi" in
    let plib =
      VCl.Plib.create
        ~path:(Printf.sprintf "/shm/plib-fi-%d" !fresh_id)
        ~size:(16 lsl 20) ~owner ()
    in
    Fun.protect
      ~finally:(fun () -> Hodor.Library.release (VCl.Plib.library plib))
      (fun () ->
        let vm = Vm.create () in
        let finished = Atomic.make 0 in
        let killed = Atomic.make 0 in
        for i = 0 to 3 do
          ignore (Vm.spawn vm ~name:(Printf.sprintf "tenant%d" i) (fun () ->
            let proc = Process.make ~uid:(2000 + i) (Printf.sprintf "t%d" i) in
            Process.with_process proc (fun () ->
              try
                for j = 0 to 199 do
                  let k = Printf.sprintf "t%d-%d" i (j mod 17) in
                  (match j mod 3 with
                   | 0 -> ignore (VCl.Plib.set plib k k)
                   | 1 -> ignore (VCl.Plib.get plib k)
                   | _ -> ignore (VCl.Plib.delete plib k));
                  if i = 0 && j = 100 then
                    Process.kill ~now_ns:(Vm.Sync.now_ns ()) proc
                done;
                Atomic.incr finished
              with Process.Process_killed _ -> Atomic.incr killed)))
        done;
        Vm.run vm;
        Alcotest.(check int) "three tenants finished" 3 (Atomic.get finished);
        Alcotest.(check int) "one died" 1 (Atomic.get killed);
        Shm.Region.kernel_mode (fun () ->
          VCl.Plib.Store.check_invariants (VCl.Plib.store plib));
        Vm.events_processed vm)
  in
  let e1 = run () and e2 = run () in
  Alcotest.(check int) "fault injection is deterministic" e1 e2

(* Position independence end to end: the same heap image serves two
   mappings at different simulated base addresses, and the restart path
   finds all data regardless. *)
let test_position_independence_across_mappings () =
  let disk = Filename.temp_file "plib-pi" ".img" in
  incr fresh_id;
  let owner = Process.make ~uid:1000 "bk-pi" in
  let path = Printf.sprintf "/shm/plib-pi-%d" !fresh_id in
  let p = Plib.create ~path ~size:(16 lsl 20) ~owner () in
  ignore (Plib.set p "anchor" "still-here");
  Plib.shutdown p ~disk_path:disk;
  (* load the image twice: two independent "processes" with their own
     mappings at different bases *)
  let reg1 = Shm.Region.load ~path:disk in
  let reg2 = Shm.Region.load ~path:disk in
  let m1 = Shm.Mapping.map reg1 and m2 = Shm.Mapping.map reg2 in
  Alcotest.(check bool) "different virtual bases" true
    (Shm.Mapping.base m1 <> Shm.Mapping.base m2);
  List.iter
    (fun reg ->
      (* the image keeps its pkey tags, so inspection is kernel-side *)
      Shm.Region.kernel_mode (fun () ->
        let h = Ralloc.attach reg in
        let cell = Ralloc.get_root h Core.Plib_store.root_primary in
        let ctrl = Ralloc.Pptr.load reg ~at:cell in
        Alcotest.(check bool) "root resolves at any base" true (ctrl > 0)))
    [ reg1; reg2 ];
  (* and a full restart over one of them serves the data *)
  let owner2 = Process.make ~uid:1000 "bk-pi2" in
  let p2 = Plib.restart ~disk_path:disk ~path:(path ^ "-b") ~owner:owner2 () in
  Fun.protect
    ~finally:(fun () ->
      Hodor.Library.release (Plib.library p2);
      Sys.remove disk)
    (fun () ->
      match Plib.get p2 "anchor" with
      | Some r -> Alcotest.(check string) "data" "still-here" r.Store.value
      | None -> Alcotest.fail "anchor lost")

(* ---- the batch plane against the scalar ops -------------------------- *)

module P = Mc_protocol.Types

(* One seeded stream over 16 keys: every command kind the batch plane
   shares with the scalar wrappers, numeric values so incr hits, and
   an absolute touch expiry so the final contents do not depend on
   the wall clock. *)
let batch_stream ~seed =
  let rng = Random.State.make [| seed |] in
  List.init 400 (fun i ->
    let key = Printf.sprintf "bk%d" (Random.State.int rng 16) in
    let data =
      if Random.State.bool rng then string_of_int (Random.State.int rng 1000)
      else String.make (1 + Random.State.int rng 200) (Char.chr (97 + (i mod 26)))
    in
    let params =
      { P.key; flags = Random.State.int rng 8; exptime = 0; data;
        noreply = false }
    in
    match Random.State.int rng 7 with
    | 0 -> P.Get [ key ]
    | 1 -> P.Set params
    | 2 -> P.Add params
    | 3 -> P.Delete (key, false)
    | 4 -> P.Touch (key, 2_000_000_000, false)
    | 5 -> P.Incr (key, Int64.of_int (Random.State.int rng 100), false)
    | _ -> P.Append params)

let hit ~flags ~cas value = Printf.sprintf "hit %d %Ld %s" flags cas value

let stored = function
  | Store.Stored -> "stored"
  | Store.Not_stored -> "not stored"
  | Store.Exists -> "exists"
  | Store.Not_found -> "not found"
  | Store.No_memory -> "no memory"

let found b ~yes = if b then yes else "not found"

(* The stream's outcomes through the scalar wrappers, one crossing per
   op. *)
let scalar_outcome p = function
  | P.Get [ k ] -> (
    match Plib.get p k with
    | Some r -> hit ~flags:r.Store.flags ~cas:r.Store.cas r.Store.value
    | None -> "miss")
  | P.Set q -> stored (Plib.set p ~flags:q.P.flags q.P.key q.P.data)
  | P.Add q -> stored (Plib.add p ~flags:q.P.flags q.P.key q.P.data)
  | P.Append q -> stored (Plib.append p q.P.key q.P.data)
  | P.Delete (k, _) -> found (Plib.delete p k) ~yes:"deleted"
  | P.Touch (k, e, _) -> found (Plib.touch p k e) ~yes:"touched"
  | P.Incr (k, d, _) -> (
    match Plib.incr p k d with
    | Store.Counter v -> Printf.sprintf "number %Lu" v
    | Store.Counter_not_found -> "not found"
    | Store.Non_numeric -> "non-numeric")
  | _ -> Alcotest.fail "command outside the stream"

let batch_outcome = function
  | P.Values { vals = [ v ]; _ } -> hit ~flags:v.P.v_flags ~cas:v.P.v_cas v.P.v_data
  | P.Values { vals = []; _ } -> "miss"
  | P.Stored -> "stored"
  | P.Not_stored -> "not stored"
  | P.Exists -> "exists"
  | P.Not_found -> "not found"
  | P.Server_error _ -> "no memory"
  | P.Deleted -> "deleted"
  | P.Touched -> "touched"
  | P.Number v -> Printf.sprintf "number %Lu" v
  | P.Client_error _ -> "non-numeric"
  | r -> Alcotest.failf "unexpected reply %S" (Mc_protocol.Ascii.encode_response r)

let contents p =
  List.sort compare
    (Plib.fold_keys p
       (fun acc key ~nbytes ~exptime -> (key, nbytes, exptime) :: acc)
       [])

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take i acc = function
      | x :: tl when i < n -> take (i + 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take 0 [] l in
    c :: chunks n rest

(* The batch plane is the scalar plane, amortized: the same stream cut
   into batches of 1, 8 and 64 gives the same per-op outcome and leaves
   the same store, and [on_op] acks every op exactly once, in order,
   with the reply the batch returns for it. *)
let test_batch_matches_scalar () =
  let stream = batch_stream ~seed:11 in
  let want, want_contents =
    with_plib (fun p ~owner:_ ->
      let o = List.map (scalar_outcome p) stream in
      (o, contents p))
  in
  Alcotest.(check bool) "the stream hits, misses and counts" true
    (List.exists (String.starts_with ~prefix:"hit") want
     && List.mem "miss" want
     && List.exists (String.starts_with ~prefix:"number") want
     && List.mem "touched" want);
  List.iter
    (fun b ->
      let got, got_contents =
        with_plib (fun p ~owner:_ ->
          let o =
            List.concat_map
              (fun cmds ->
                let acks = ref [] in
                let resps =
                  Plib.batch p cmds ~on_op:(fun i r -> acks := (i, r) :: !acks)
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "B=%d: on_op acks each op once, in order" b)
                  (List.init (List.length cmds) Fun.id)
                  (List.rev_map fst !acks);
                Alcotest.(check bool)
                  (Printf.sprintf "B=%d: on_op sees the returned replies" b)
                  true
                  (List.rev_map snd !acks = resps);
                List.map batch_outcome resps)
              (chunks b stream)
          in
          (o, contents p))
      in
      List.iteri
        (fun i (w, g) ->
          if w <> g then
            Alcotest.failf "B=%d: op %d is %S through the scalar ops but %S batched"
              b i w g)
        (List.combine want got);
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "B=%d: final contents" b)
        want_contents got_contents)
    [ 1; 8; 64 ]

(* A scalar op is one plain crossing: it pays for no batching, so the
   batch counters stay put and crossings/op stays at one, tenant-bound
   or not. *)
let test_scalar_path_pays_no_batching () =
  let module C = Telemetry.Counters in
  with_plib (fun p ~owner:_ ->
    ignore (Plib.set p "k" "v");
    let slot = Plib.create_tenant p ~name:"sc" ~uid:4242 () in
    let one_crossing what f =
      let e0 = C.read C.Id.hodor_enter and b0 = C.read C.Id.hodor_batch_calls in
      f ();
      Alcotest.(check int) (what ^ ": one crossing") 1
        (C.read C.Id.hodor_enter - e0);
      Alcotest.(check int) (what ^ ": no batch call") 0
        (C.read C.Id.hodor_batch_calls - b0)
    in
    one_crossing "get" (fun () -> ignore (Plib.get p "k"));
    one_crossing "set" (fun () -> ignore (Plib.set p "k" "w"));
    Process.with_process (Process.make ~uid:4242 "sc-client") (fun () ->
      one_crossing "tenant_get" (fun () -> ignore (Plib.tenant_get p slot "k"))))

(* With the seqlock read path on, a scalar get validates against the
   version words and takes no stripe at all. *)
let test_optimistic_get_takes_no_stripe () =
  let module C = Telemetry.Counters in
  with_plib (fun p ~owner:_ ->
    Alcotest.(check bool) "seqlock reads on" true
      (Plib.Store.config (Plib.store p)).Store.optimistic_reads;
    ignore (Plib.set p "k" "v");
    let acqs () =
      let _, n, _ = Telemetry.Contention.totals () in
      n
    in
    let a0 = acqs () and h0 = C.read C.Id.opt_hits in
    (match Plib.get p "k" with
     | Some r -> Alcotest.(check string) "value" "v" r.Store.value
     | None -> Alcotest.fail "hit expected");
    Alcotest.(check int) "retired optimistically" 1 (C.read C.Id.opt_hits - h0);
    Alcotest.(check int) "no stripe acquired" 0 (acqs () - a0))

let () =
  Alcotest.run "plib"
    [ ( "operation",
        [ Alcotest.test_case "basic ops" `Quick test_basic_ops;
          Alcotest.test_case "two processes share" `Quick
            test_two_processes_share_one_store;
          Alcotest.test_case "vm full stack" `Quick test_in_vm_full_stack ] );
      ( "protection",
        [ Alcotest.test_case "sealed outside calls" `Quick
            test_region_protected_outside_calls;
          Alcotest.test_case "no-hodor leaves region open" `Quick
            test_unprotected_mode_region_open;
          Alcotest.test_case "euid dance" `Quick test_client_euid_dance;
          Alcotest.test_case "copy-in insulation" `Quick
            test_copy_in_insulates_from_mutation ] );
      ( "fault tolerance",
        [ Alcotest.test_case "kill mid-call" `Quick
            test_kill_mid_call_preserves_store;
          Alcotest.test_case "crash poisons" `Quick
            test_crash_inside_library_poisons_store ] );
      ( "lifecycle",
        [ Alcotest.test_case "shutdown/restart" `Quick
            test_shutdown_restart_preserves_data;
          Alcotest.test_case "restart refuses a bump-tier image" `Quick
            test_restart_refuses_arena_image;
          Alcotest.test_case "cleaner watermark" `Quick
            test_maintain_enforces_watermark ] );
      ( "fault injection & PI",
        [ Alcotest.test_case "vm fault injection deterministic" `Quick
            test_vm_fault_injection_deterministic;
          Alcotest.test_case "position independence" `Quick
            test_position_independence_across_mappings ] );
      ( "extensions",
        [ Alcotest.test_case "hybrid socket+local" `Quick
            test_hybrid_socket_and_local_share;
          Alcotest.test_case "resize through plib" `Quick test_plib_resize;
          Alcotest.test_case "batch matches scalar ops" `Quick
            test_batch_matches_scalar;
          Alcotest.test_case "scalar path pays no batching" `Quick
            test_scalar_path_pays_no_batching;
          Alcotest.test_case "optimistic get takes no stripe" `Quick
            test_optimistic_get_takes_no_stripe ] ) ]
