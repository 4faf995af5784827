let test_per_thread_isolation () =
  let key = Tls.new_key (fun () -> ref 0) in
  Tls.get key := 1;
  let seen = ref (-1) in
  let th =
    Thread.create
      (fun () ->
        (* a fresh thread sees a fresh slot *)
        seen := !(Tls.get key);
        Tls.set key (ref 42))
      ()
  in
  Thread.join th;
  Alcotest.(check int) "other thread starts from init" 0 !seen;
  Alcotest.(check int) "this thread kept its value" 1 !(Tls.get key)

let test_lazy_init_once () =
  let calls = ref 0 in
  let key =
    Tls.new_key (fun () ->
      incr calls;
      "v")
  in
  ignore (Tls.get key);
  ignore (Tls.get key);
  Alcotest.(check int) "init ran once" 1 !calls

let test_set_get_clear () =
  let key = Tls.new_key (fun () -> "default") in
  Alcotest.(check string) "default" "default" (Tls.get key);
  Tls.set key "changed";
  Alcotest.(check string) "changed" "changed" (Tls.get key);
  Tls.clear key;
  Alcotest.(check string) "re-initialised" "default" (Tls.get key)

let test_provider_routing () =
  let key = Tls.new_key (fun () -> 0) in
  Tls.set key 7;
  let t1 = Tls.fresh_table () and t2 = Tls.fresh_table () in
  let current = ref t1 in
  Tls.install_provider (fun () -> !current);
  Fun.protect ~finally:Tls.remove_provider (fun () ->
    Alcotest.(check bool) "provider active" true (Tls.provider_installed ());
    Tls.set key 100;
    current := t2;
    Alcotest.(check int) "t2 starts fresh" 0 (Tls.get key);
    Tls.set key 200;
    current := t1;
    Alcotest.(check int) "t1 kept its value" 100 (Tls.get key));
  Alcotest.(check bool) "provider removed" false (Tls.provider_installed ());
  Alcotest.(check int) "default table restored" 7 (Tls.get key)

let test_distinct_keys_independent () =
  let k1 = Tls.new_key (fun () -> 1) and k2 = Tls.new_key (fun () -> 2) in
  Tls.set k1 10;
  Alcotest.(check int) "k2 untouched" 2 (Tls.get k2)

let test_keys_past_capacity () =
  (* more keys than a fresh table has room for, one of them read for
     the first time from inside another key's init *)
  let keys = List.init 40 (fun i -> (i, Tls.new_key (fun () -> -1))) in
  let last = Tls.new_key (fun () -> 7) in
  let outer = Tls.new_key (fun () -> Tls.get last + 1) in
  List.iter (fun (i, k) -> Tls.set k i) keys;
  Alcotest.(check int) "init that reads a later key" 8 (Tls.get outer);
  Alcotest.(check int) "the later key kept its init" 7 (Tls.get last);
  List.iter
    (fun (i, k) -> Alcotest.(check int) (Printf.sprintf "key %d" i) i (Tls.get k))
    keys

let test_clear_then_fresh_init () =
  let calls = ref 0 in
  let key =
    Tls.new_key (fun () ->
      incr calls;
      ref !calls)
  in
  let first = Tls.get key in
  first := 100;
  Tls.clear key;
  let second = Tls.get key in
  Alcotest.(check int) "init ran again" 2 !calls;
  Alcotest.(check int) "fresh value" 2 !second;
  Alcotest.(check bool) "not the cleared value" false (first == second)

let test_tables_isolated () =
  let key = Tls.new_key (fun () -> "init") in
  (* a key id past a fresh table's capacity: growing one table must
     not show through the other *)
  let far = List.hd (List.rev (List.init 20 (fun _ -> Tls.new_key (fun () -> 0)))) in
  let t1 = Tls.fresh_table () and t2 = Tls.fresh_table () in
  let current = ref t1 in
  Tls.install_provider (fun () -> !current);
  Fun.protect ~finally:Tls.remove_provider (fun () ->
    Tls.set key "one";
    Tls.set far 1;
    current := t2;
    Alcotest.(check string) "t2 starts fresh" "init" (Tls.get key);
    Alcotest.(check int) "t2 far key fresh" 0 (Tls.get far);
    Tls.set far 2;
    Tls.clear key;
    current := t1;
    Alcotest.(check string) "t1 kept its value" "one" (Tls.get key);
    Alcotest.(check int) "t1 far key kept" 1 (Tls.get far))

(* A machine reaches every thread started under it, on either
   substrate, and nothing outside it. *)
let test_machine_carried () =
  let key = Machine.new_key (fun () -> ref 0) in
  let on_real = ref 0 and on_vm = ref 0 in
  Machine.run (Machine.create ()) (fun () ->
    Machine.get key := 7;
    Thread.join
      (Platform.Real_sync.spawn (fun () -> on_real := !(Machine.get key)));
    let vm = Vm.create () in
    ignore
      (Vm.spawn vm (fun () ->
         Vm.Sync.join
           (Vm.Sync.spawn (fun () -> on_vm := !(Machine.get key)))));
    Vm.run vm);
  Alcotest.(check int) "real thread" 7 !on_real;
  Alcotest.(check int) "vm thread spawned by a vm thread" 7 !on_vm;
  Alcotest.(check int) "outside the run" 0 !(Machine.get key)

let () =
  Alcotest.run "tls"
    [ ( "tls",
        [ Alcotest.test_case "per-thread isolation" `Quick
            test_per_thread_isolation;
          Alcotest.test_case "lazy init once" `Quick test_lazy_init_once;
          Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
          Alcotest.test_case "provider routing" `Quick test_provider_routing;
          Alcotest.test_case "distinct keys" `Quick
            test_distinct_keys_independent;
          Alcotest.test_case "keys past capacity" `Quick
            test_keys_past_capacity;
          Alcotest.test_case "clear then fresh init" `Quick
            test_clear_then_fresh_init;
          Alcotest.test_case "tables isolated" `Quick test_tables_isolated;
          Alcotest.test_case "machine carried to spawned threads" `Quick
            test_machine_carried ] ) ]
