(** Hodor runtime: trampoline rights amplification, fault tolerance
    (poisoning, kill-with-grace), loader scan + euid dance. *)

module Library = Hodor.Library
module Trampoline = Hodor.Trampoline
module Loader = Hodor.Loader
module Process = Simos.Process
module Region = Shm.Region

let with_lib ?protection ?copy_args ?grace_ns f =
  let lib =
    Library.create ?protection ?copy_args ?grace_ns ~name:"testlib"
      ~owner_uid:1000 ()
  in
  Fun.protect ~finally:(fun () -> Library.release lib) (fun () -> f lib)

let with_protected_region f =
  with_lib (fun lib ->
    let region = Region.create ~name:"res" ~size:8192 ~pkey:0 () in
    Library.protect_region lib region;
    f lib region)

let test_rights_amplification () =
  with_protected_region (fun lib region ->
    Pku.Pkru.reset_thread ();
    (* outside: denied *)
    (match Region.read_u8 region 0 with
     | _ -> Alcotest.fail "expected fault outside the library"
     | exception Pku.Fault.Protection_fault _ -> ());
    (* inside: allowed *)
    let v =
      Trampoline.call lib (fun () ->
        Region.write_u8 region 0 42;
        Region.read_u8 region 0)
    in
    Alcotest.(check int) "inside the call" 42 v;
    (* and denied again after return *)
    (match Region.read_u8 region 0 with
     | _ -> Alcotest.fail "rights must drop on the way out"
     | exception Pku.Fault.Protection_fault _ -> ()))

let test_pkru_restored_even_on_nested_calls () =
  with_protected_region (fun lib region ->
    Pku.Pkru.reset_thread ();
    let saved = Pku.Pkru.read () in
    Trampoline.call lib (fun () ->
      Alcotest.(check bool) "on library stack" true
        (Trampoline.on_library_stack ());
      Trampoline.call lib (fun () -> Region.write_u8 region 9 1);
      Alcotest.(check int) "still inside after nested return" 1
        (Region.read_u8 region 9));
    Alcotest.(check bool) "off library stack" false
      (Trampoline.on_library_stack ());
    Alcotest.(check int) "pkru restored" saved (Pku.Pkru.read ()))

let test_unprotected_mode_skips_pkru () =
  with_lib ~protection:Library.Unprotected (fun lib ->
    Alcotest.(check int) "key 0" Pku.Pkey.default (Library.pkey lib);
    let before = Pku.Pkru.read () in
    Trampoline.call lib (fun () ->
      Alcotest.(check int) "pkru untouched" before (Pku.Pkru.read ())))

let test_crash_inside_poisons () =
  with_lib (fun lib ->
    (match Trampoline.call lib (fun () -> failwith "segfault!") with
     | _ -> Alcotest.fail "expected Library_call_failed"
     | exception Trampoline.Library_call_failed ("testlib", Failure _) -> ());
    Alcotest.(check bool) "poisoned" true (Library.poisoned lib <> None);
    (* every subsequent call is refused *)
    (match Trampoline.call lib (fun () -> ()) with
     | () -> Alcotest.fail "expected Library_poisoned"
     | exception Library.Library_poisoned _ -> ()))

let test_kill_mid_call_completes_within_grace () =
  with_lib ~grace_ns:1_000_000_000 (fun lib ->
    let p = Process.make ~uid:1 "victim" in
    Process.with_process p (fun () ->
      let side_effect = ref false in
      (match
         Trampoline.call lib (fun () ->
           (* the process dies while we're inside *)
           Process.kill ~now_ns:(Telemetry.Control.now_ns ()) p;
           side_effect := true)
       with
      | () -> Alcotest.fail "thread must observe its death after the call"
      | exception Process.Process_killed _ -> ());
      Alcotest.(check bool) "the call itself completed" true !side_effect;
      Alcotest.(check bool) "library not poisoned" true
        (Library.poisoned lib = None)))

(* Drive time with a fake clock so grace arithmetic is exact to the
   nanosecond. *)
let with_fake_clock f =
  let now = ref 0 in
  let prev =
    Telemetry.Control.install
      { now = (fun () -> !now); charge = (fun n -> now := !now + n) }
  in
  Fun.protect
    ~finally:(fun () -> Telemetry.Control.restore prev)
    (fun () -> f now)

(* Kill the current process mid-call, stretch the call so it returns
   exactly [overrun] ns after the kill, and report the library's
   health afterwards. *)
let killed_call_health ~grace_ns ~overrun =
  with_fake_clock (fun now ->
    with_lib ~grace_ns (fun lib ->
      let p = Process.make ~uid:1 "victim" in
      Process.with_process p (fun () ->
        (match
           Trampoline.call lib (fun () ->
             Process.kill ~now_ns:!now p;
             now := !now + overrun)
         with
        | () -> Alcotest.fail "the dying thread must observe its death"
        | exception Process.Process_killed _ -> ());
        Library.health lib)))

let test_kill_beyond_grace_needs_recovery () =
  with_fake_clock (fun now ->
    with_lib ~grace_ns:1_000 (fun lib ->
      let healed = ref 0 in
      Library.set_recover lib (fun () -> incr healed);
      let p = Process.make ~uid:1 "victim" in
      Process.with_process p (fun () ->
        (match
           Trampoline.call lib (fun () ->
             Process.kill ~now_ns:!now p;
             (* the call drags on past the grace period *)
             now := !now + 10_000)
         with
        | () -> Alcotest.fail "expected kill"
        | exception Process.Process_killed _ -> ());
        Alcotest.(check bool) "killed-in-call, not poisoned" true
          (Library.killed lib <> None && Library.poisoned lib = None));
      (* recoverable: callers are refused until recovery has run... *)
      let q = Process.make ~uid:2 "next-client" in
      Process.with_process q (fun () ->
        match Trampoline.call lib (fun () -> ()) with
        | () -> Alcotest.fail "expected Library_needs_recovery"
        | exception Library.Library_needs_recovery _ -> ());
      (* ...and admitted again afterwards *)
      Library.recover lib;
      Alcotest.(check int) "recovery routine ran" 1 !healed;
      Alcotest.(check bool) "healthy again" true (Library.health lib = Library.Healthy);
      Process.with_process q (fun () -> Trampoline.call lib (fun () -> ()))))

let test_grace_boundary_exact () =
  (* Covered iff end - kill <= grace: exactly at the boundary the OS
     still waits for the call. *)
  Alcotest.(check bool) "overrun = grace: covered" true
    (killed_call_health ~grace_ns:1_000 ~overrun:1_000 = Library.Healthy);
  Alcotest.(check bool) "one ns short: covered" true
    (killed_call_health ~grace_ns:1_000 ~overrun:999 = Library.Healthy);
  (match killed_call_health ~grace_ns:1_000 ~overrun:1_001 with
   | Library.Killed_in_call _ -> ()
   | _ -> Alcotest.fail "one ns past the grace must mark the library killed")

let test_second_kill_during_grace_keeps_first_timestamp () =
  with_fake_clock (fun now ->
    with_lib ~grace_ns:1_000 (fun lib ->
      let p = Process.make ~uid:1 "victim" in
      Process.with_process p (fun () ->
        (match
           Trampoline.call lib (fun () ->
             let t0 = !now in
             Process.kill ~now_ns:t0 p;
             now := !now + 600;
             (* a second SIGKILL lands during the grace window: counted,
                but the first death timestamp keeps governing the
                arithmetic — were the second to replace it, this call
                would look covered (900 <= 1000) instead of overrun
                (1500 > 1000) *)
             Process.kill ~now_ns:!now p;
             Alcotest.(check int) "both kills counted" 2 (Process.kill_count p);
             Alcotest.(check (option int)) "first timestamp kept" (Some t0)
               (Process.killed_at p);
             now := !now + 900)
         with
        | () -> Alcotest.fail "expected kill"
        | exception Process.Process_killed _ -> ());
        match Library.health lib with
        | Library.Killed_in_call _ -> ()
        | _ ->
          Alcotest.fail
            "overrun must be measured from the first kill, not the duplicate")))

let test_duplicate_kill_cannot_rewind_time () =
  let p = Process.make ~uid:1 "victim" in
  Process.kill ~now_ns:100 p;
  (match Process.kill ~now_ns:50 p with
   | () -> Alcotest.fail "a duplicate kill timestamped in the past is a bug"
   | exception Invalid_argument _ -> ());
  (* a later duplicate is a counted no-op *)
  Process.kill ~now_ns:200 p;
  Alcotest.(check (option int)) "first timestamp kept" (Some 100)
    (Process.killed_at p);
  Alcotest.(check int) "all three deliveries counted" 3 (Process.kill_count p)

let test_poison_dominates_killed () =
  with_lib (fun lib ->
    Library.mark_killed lib "killed past grace";
    Library.poison lib "then the code crashed";
    Alcotest.(check bool) "poisoned wins" true (Library.poisoned lib <> None);
    match Library.recover lib with
    | () -> Alcotest.fail "a poisoned library must refuse recovery"
    | exception Library.Library_poisoned _ -> ())

let test_recover_on_healthy_library () =
  (* A kill so abrupt no trampoline observed it leaves the library
     Healthy but the store torn: recovery must be callable anyway. *)
  with_lib (fun lib ->
    let healed = ref 0 in
    Library.set_recover lib (fun () -> incr healed);
    Library.recover lib;
    Library.recover lib;
    Alcotest.(check int) "idempotent at quiescence" 2 !healed;
    Alcotest.(check bool) "still healthy" true
      (Library.health lib = Library.Healthy))

let test_dead_process_cannot_enter () =
  with_lib (fun lib ->
    let p = Process.make ~uid:1 "corpse" in
    Process.kill ~now_ns:0 p;
    Process.with_process p (fun () ->
      match Trampoline.call lib (fun () -> ()) with
      | () -> Alcotest.fail "expected refusal"
      | exception Process.Process_killed _ -> ()))

let test_arg_copy_snapshot () =
  with_lib ~copy_args:true (fun lib ->
    let buf = Bytes.of_string "secret" in
    let seen_inside =
      Trampoline.call_with_args lib ~args:[ buf ] (fun snapshots ->
        (* a concurrent client thread could be scribbling on [buf];
           the library must be working on its own copy *)
        Bytes.set buf 0 'X';
        Bytes.to_string (List.hd snapshots))
    in
    Alcotest.(check string) "snapshot unaffected by caller mutation" "secret"
      seen_inside)

let test_arg_no_copy_shares () =
  with_lib ~copy_args:false (fun lib ->
    let buf = Bytes.of_string "shared" in
    Trampoline.call_with_args lib ~args:[ buf ] (fun inside ->
      Alcotest.(check bool) "same buffer without copying" true
        (List.hd inside == buf)))

let test_two_libraries_distinct_keys () =
  with_lib (fun lib_a ->
    with_lib (fun lib_b ->
      let ra = Region.create ~name:"a" ~size:4096 ~pkey:0 () in
      let rb = Region.create ~name:"b" ~size:4096 ~pkey:0 () in
      Library.protect_region lib_a ra;
      Library.protect_region lib_b rb;
      Alcotest.(check bool) "different keys" true
        (Library.pkey lib_a <> Library.pkey lib_b);
      Pku.Pkru.reset_thread ();
      (* inside library A, region B stays sealed *)
      Trampoline.call lib_a (fun () ->
        Region.write_u8 ra 0 1;
        match Region.read_u8 rb 0 with
        | _ -> Alcotest.fail "library A must not see library B's region"
        | exception Pku.Fault.Protection_fault _ -> ())))

let test_multi_arg_copy () =
  with_lib ~copy_args:true (fun lib ->
    let k = Bytes.of_string "key" and v = Bytes.of_string "value" in
    let seen =
      Trampoline.call_with_args lib ~args:[ k; v ] (fun args ->
        Bytes.fill k 0 3 'X';
        Bytes.fill v 0 5 'Y';
        List.map Bytes.to_string args)
    in
    Alcotest.(check (list string)) "snapshots of every argument"
      [ "key"; "value" ] seen)

let test_runtime_hooks_charge_cost () =
  let charged = ref 0 in
  let prev =
    Telemetry.Control.install
      { now = (fun () -> 0); charge = (fun n -> charged := !charged + n) }
  in
  Fun.protect ~finally:(fun () -> Telemetry.Control.restore prev) (fun () ->
    with_lib (fun lib ->
      Trampoline.call lib (fun () -> ());
      Alcotest.(check int) "trampoline cost charged"
        Platform.Cost_model.current.trampoline_hodor !charged))

(* No Plib and no wiring: the environment [Vm.run] installs is the
   only thing that makes a crossing cost its modeled price. *)
let test_bare_vm_call_charges_crossing () =
  with_lib ~protection:Library.Protected (fun lib ->
    let vm = Vm.create () in
    let dt = ref (-1) in
    ignore
      (Vm.spawn vm (fun () ->
         let t0 = Vm.Sync.now_ns () in
         Trampoline.call lib (fun () -> ());
         dt := Vm.Sync.now_ns () - t0));
    Vm.run vm;
    Alcotest.(check int) "one crossing, charged to the caller"
      Platform.Cost_model.current.trampoline_hodor !dt)

let test_release_recycles_pkey () =
  let lib = Library.create ~name:"short-lived" ~owner_uid:0 () in
  let k = Library.pkey lib in
  Library.release lib;
  let k2 = Pku.Pkey.alloc () in
  Alcotest.(check int) "pkey recycled after release" k k2;
  Pku.Pkey.free k2

let test_loader_scan_breakpoints () =
  let open Pku.Insn in
  let dr = Pku.Debug_regs.create () in
  let b =
    make ~trampolines:[ 0 ] "app"
      [| Wrpkru 0; Compute 1; Wrpkru 7; Compute 1; Wrpkru 7 |]
  in
  let report = Loader.scan_and_arm dr b in
  Alcotest.(check int) "two strays" 2 report.Loader.strays_found;
  Alcotest.(check int) "both got breakpoints" 2 report.Loader.breakpoints;
  Alcotest.(check int) "no page fallback needed" 0 report.Loader.pages_gated

let test_loader_page_fallback_beyond_four () =
  let open Pku.Insn in
  let dr = Pku.Debug_regs.create () in
  let text = Array.init 6 (fun _ -> Wrpkru 9) in
  let report = Loader.scan_and_arm dr (make "evil" text) in
  Alcotest.(check int) "six strays" 6 report.Loader.strays_found;
  Alcotest.(check int) "four breakpoints" 4 report.Loader.breakpoints;
  Alcotest.(check int) "rest gated by pages" 2 report.Loader.pages_gated

let test_exec_traps_stray_wrpkru () =
  let open Pku.Insn in
  with_lib (fun lib ->
    let dr = Pku.Debug_regs.create () in
    let b = make "app" [| Compute 1; Wrpkru 0 |] in
    ignore (Loader.scan_and_arm dr b);
    (match Loader.exec dr lib b with
     | () -> Alcotest.fail "expected Breakpoint_trap"
     | exception Pku.Fault.Breakpoint_trap _ -> ()))

let test_exec_unscanned_binary_is_the_attack () =
  let open Pku.Insn in
  with_protected_region (fun lib region ->
    Pku.Pkru.reset_thread ();
    let dr = Pku.Debug_regs.create () in
    (* NOT scanned: the stray executes and opens the key -- showing
       exactly what the loader protects against. *)
    let evil_pkru =
      Pku.Pkru.set_perm (Pku.Pkru.read ()) (Library.pkey lib) Pku.Pkru.Enable
    in
    let b = make "evil" [| Wrpkru evil_pkru |] in
    Loader.exec dr lib b;
    Alcotest.(check int) "attacker reads the protected region" 0
      (Region.read_u8 region 0);
    Pku.Pkru.reset_thread ())

let test_exec_calls_exports_via_trampoline () =
  with_protected_region (fun lib region ->
    Pku.Pkru.reset_thread ();
    Library.export lib ~entry:"bump" (fun () ->
      Region.write_u8 region 0 (Region.read_u8 region 0 + 1));
    let dr = Pku.Debug_regs.create () in
    let b = Pku.Insn.make "app" [| Pku.Insn.Call "bump"; Pku.Insn.Call "bump" |] in
    Loader.exec dr lib b;
    Alcotest.(check int) "export ran twice with rights" 2
      (Region.kernel_mode (fun () -> Region.read_u8 region 0)))

let test_init_library_euid_dance () =
  with_lib (fun lib ->
    let region = Region.create ~name:"store" ~size:4096 ~pkey:0 () in
    Simos.Sim_fs.create_file ~path:"/kv/store" ~owner:1000 ~mode:0o600 region;
    Fun.protect ~finally:(fun () -> Simos.Sim_fs.unlink "/kv/store")
      (fun () ->
        let client = Process.make ~uid:2000 "client" in
        let inited = ref false in
        Library.set_init lib (fun () ->
          inited := true;
          (* during init we run with the owner's euid *)
          Alcotest.(check int) "euid amplified" 1000
            (Process.euid (Process.current ())));
        Process.with_process client (fun () ->
          let r = Loader.init_library lib ~store_path:"/kv/store" in
          Alcotest.(check bool) "same region" true (r == region);
          Alcotest.(check int) "euid reverted" 2000
            (Process.euid (Process.current ())));
        Alcotest.(check bool) "init ran" true !inited))

let () =
  Alcotest.run "hodor"
    [ ( "trampoline",
        [ Alcotest.test_case "rights amplification" `Quick
            test_rights_amplification;
          Alcotest.test_case "pkru restore + nesting" `Quick
            test_pkru_restored_even_on_nested_calls;
          Alcotest.test_case "unprotected mode" `Quick
            test_unprotected_mode_skips_pkru;
          Alcotest.test_case "arg copy snapshots" `Quick test_arg_copy_snapshot;
          Alcotest.test_case "no-copy shares" `Quick test_arg_no_copy_shares ] );
      ( "fault tolerance",
        [ Alcotest.test_case "crash poisons" `Quick test_crash_inside_poisons;
          Alcotest.test_case "kill mid-call completes" `Quick
            test_kill_mid_call_completes_within_grace;
          Alcotest.test_case "kill beyond grace needs recovery" `Quick
            test_kill_beyond_grace_needs_recovery;
          Alcotest.test_case "grace boundary to the ns" `Quick
            test_grace_boundary_exact;
          Alcotest.test_case "second kill during grace" `Quick
            test_second_kill_during_grace_keeps_first_timestamp;
          Alcotest.test_case "duplicate kill can't rewind time" `Quick
            test_duplicate_kill_cannot_rewind_time;
          Alcotest.test_case "poison dominates killed" `Quick
            test_poison_dominates_killed;
          Alcotest.test_case "recover while healthy" `Quick
            test_recover_on_healthy_library;
          Alcotest.test_case "dead process refused" `Quick
            test_dead_process_cannot_enter ] );
      ( "loader",
        [ Alcotest.test_case "scan installs breakpoints" `Quick
            test_loader_scan_breakpoints;
          Alcotest.test_case "page fallback past 4" `Quick
            test_loader_page_fallback_beyond_four;
          Alcotest.test_case "stray wrpkru traps" `Quick
            test_exec_traps_stray_wrpkru;
          Alcotest.test_case "unscanned binary attack" `Quick
            test_exec_unscanned_binary_is_the_attack;
          Alcotest.test_case "exported calls trampoline" `Quick
            test_exec_calls_exports_via_trampoline;
          Alcotest.test_case "init euid dance" `Quick
            test_init_library_euid_dance ] );
      ( "composition",
        [ Alcotest.test_case "two libraries, two keys" `Quick
            test_two_libraries_distinct_keys;
          Alcotest.test_case "multi-arg copy" `Quick test_multi_arg_copy;
          Alcotest.test_case "runtime hooks" `Quick
            test_runtime_hooks_charge_cost;
          Alcotest.test_case "pkey recycling" `Quick
            test_release_recycles_pkey;
          Alcotest.test_case "bare Vm run charges the crossing" `Quick
            test_bare_vm_call_charges_crossing ] ) ]
