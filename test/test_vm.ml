(** Tests of the virtual-time machine: the benchmark results are only
    as trustworthy as this scheduler, so its semantics get the most
    detailed checks. *)

module S = Vm.Sync

let run_main f =
  let vm = Vm.create () in
  ignore (Vm.spawn vm ~name:"main" f);
  Vm.run vm;
  vm

let test_advance_accumulates () =
  let vm = run_main (fun () ->
    S.advance 100;
    S.advance 250;
    Alcotest.(check int) "clock" 350 (S.now_ns ()))
  in
  Alcotest.(check int) "final vnow" 350 (Vm.now vm)

let test_mutex_serializes () =
  let vm = Vm.create () in
  let m = S.mutex () in
  let in_cs = ref false in
  let overlaps = ref 0 in
  for _ = 1 to 4 do
    ignore (Vm.spawn vm (fun () ->
      for _ = 1 to 25 do
        S.lock m;
        if !in_cs then incr overlaps;
        in_cs := true;
        S.advance 100;
        in_cs := false;
        S.unlock m
      done))
  done;
  Vm.run vm;
  Alcotest.(check int) "no overlapping critical sections" 0 !overlaps;
  (* 4*25 sections x 100ns + handoff costs, fully serialised *)
  Alcotest.(check bool) "serialised time" true (Vm.now vm >= 10_000)

let test_unlock_not_owner_fails () =
  let vm = Vm.create () in
  let m = S.mutex () in
  ignore (Vm.spawn vm ~name:"bad" (fun () -> S.unlock m));
  (match Vm.run vm with
   | () -> Alcotest.fail "expected Thread_failure"
   | exception Vm.Thread_failure ("bad", Invalid_argument _) -> ()
   | exception e -> raise e)

let test_determinism () =
  let build () =
    let vm = Vm.create () in
    let m = S.mutex () in
    let c = S.chan ~cap:3 () in
    ignore (Vm.spawn vm ~name:"prod" (fun () ->
      for i = 1 to 50 do
        S.advance 7;
        S.send c i
      done;
      S.close c));
    for _ = 1 to 3 do
      ignore (Vm.spawn vm (fun () ->
        try
          while true do
            let v = S.recv c in
            S.lock m;
            S.advance (10 + (v mod 3));
            S.unlock m
          done
        with S.Closed -> ()))
    done;
    Vm.run vm;
    (Vm.now vm, Vm.events_processed vm)
  in
  let a = build () and b = build () in
  Alcotest.(check (pair int int)) "identical executions" a b

let test_chan_fifo_and_close () =
  let got = ref [] in
  ignore (run_main (fun () ->
    let c = S.chan ~cap:2 () in
    let recv =
      S.spawn ~name:"rx" (fun () ->
        try
          while true do
            got := S.recv c :: !got
          done
        with S.Closed -> ())
    in
    List.iter (fun v -> S.send c v) [ 1; 2; 3; 4; 5 ];
    S.close c;
    S.join recv));
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_send_blocks_on_full () =
  let vm = Vm.create () in
  let c = S.chan ~cap:1 () in
  let sent_at = ref 0 in
  ignore (Vm.spawn vm ~name:"tx" (fun () ->
    S.send c 1;
    S.send c 2 (* blocks until rx drains *);
    sent_at := S.now_ns ()));
  ignore (Vm.spawn vm ~name:"rx" (fun () ->
    S.advance 1_000;
    ignore (S.recv c);
    ignore (S.recv c)));
  Vm.run vm;
  Alcotest.(check bool) "second send waited for the slow receiver" true
    (!sent_at >= 1_000)

let test_recv_on_closed_raises () =
  ignore (run_main (fun () ->
    let c = S.chan () in
    S.send c 1;
    S.close c;
    Alcotest.(check int) "drains" 1 (S.recv c);
    (match S.recv c with
     | _ -> Alcotest.fail "expected Closed"
     | exception S.Closed -> ())))

let test_try_recv () =
  ignore (run_main (fun () ->
    let c = S.chan () in
    Alcotest.(check (option int)) "empty" None (S.try_recv c);
    S.send c 9;
    Alcotest.(check (option int)) "ready" (Some 9) (S.try_recv c)))

let test_deadlock_detected () =
  let vm = Vm.create () in
  let m1 = S.mutex () and m2 = S.mutex () in
  ignore (Vm.spawn vm ~name:"a" (fun () ->
    S.lock m1;
    S.advance 10;
    S.lock m2));
  ignore (Vm.spawn vm ~name:"b" (fun () ->
    S.lock m2;
    S.advance 10;
    S.lock m1));
  (match Vm.run vm with
   | () -> Alcotest.fail "expected Deadlock"
   | exception Vm.Deadlock _ -> ())

let test_join_waits () =
  ignore (run_main (fun () ->
    let child = S.spawn ~name:"worker" (fun () -> S.advance 5_000) in
    S.advance 10;
    S.join child;
    Alcotest.(check bool) "join folded the child's clock in" true
      (S.now_ns () >= 5_000)))

let test_sleep_is_not_cpu () =
  (* Two sleepers plus one busy thread on a 1-core machine: once the
     sleepers are parked they must not dilate the busy thread. The busy
     thread first sleeps briefly so the sleepers have left the runnable
     set when it starts computing. *)
  let vm = Vm.create ~config:Vm.Config.single_core () in
  let busy_end = ref 0 in
  ignore (Vm.spawn vm ~name:"busy" (fun () ->
    S.sleep_ns 10;
    S.advance 1_000;
    busy_end := S.now_ns ()));
  for _ = 1 to 2 do
    ignore (Vm.spawn vm (fun () -> S.sleep_ns 10_000))
  done;
  Vm.run vm;
  Alcotest.(check int) "no dilation from parked sleepers" 1_010 !busy_end

let test_dilation_beyond_capacity () =
  (* 30 CPU-bound threads on the default 10c/2smt machine share its
     peak capacity; serial work stretches accordingly. *)
  let vm = Vm.create () in
  for _ = 1 to 30 do
    ignore (Vm.spawn vm (fun () -> S.advance 12_000))
  done;
  Vm.run vm;
  let c = Vm.Config.default in
  let cap = float_of_int c.Vm.Config.cores *. c.Vm.Config.smt_throughput in
  let expect = int_of_float (30.0 *. 12_000.0 /. cap) in
  let got = Vm.now vm in
  Alcotest.(check bool)
    (Printf.sprintf "expected ~%d, got %d" expect got)
    true
    (abs (got - expect) * 100 < expect * 5)

let test_thread_failure_reported () =
  let vm = Vm.create () in
  ignore (Vm.spawn vm ~name:"boom" (fun () -> failwith "bang"));
  (match Vm.run vm with
   | () -> Alcotest.fail "expected failure"
   | exception Vm.Thread_failure ("boom", Failure _) -> ());
  Alcotest.(check int) "failure recorded" 1 (List.length (Vm.failures vm))

let test_tls_per_vthread () =
  let key = Tls.new_key (fun () -> ref 0) in
  let values = ref [] in
  let vm = Vm.create () in
  for i = 1 to 3 do
    ignore (Vm.spawn vm (fun () ->
      let cell = Tls.get key in
      cell := i * 10;
      S.advance 50;
      (* another thread ran meanwhile; our slot must be untouched *)
      values := !(Tls.get key) :: !values))
  done;
  Vm.run vm;
  Alcotest.(check (list int)) "each vthread kept its own slot"
    [ 30; 20; 10 ]
    (List.sort compare !values |> List.rev)

let test_spawn_inside () =
  ignore (run_main (fun () ->
    let acc = ref 0 in
    let children =
      List.init 5 (fun i -> S.spawn (fun () ->
        S.advance 10;
        acc := !acc + i))
    in
    List.iter S.join children;
    Alcotest.(check int) "children all ran" 10 !acc))

let test_yield_interleaves_equal_clocks () =
  let order = ref [] in
  let vm = Vm.create () in
  for i = 1 to 3 do
    ignore (Vm.spawn vm (fun () ->
      for round = 1 to 2 do
        order := (i, round) :: !order;
        S.yield ()
      done))
  done;
  Vm.run vm;
  (* yield at an equal clock hands the core to the peers: rounds
     interleave rather than each thread finishing both rounds first *)
  let first_three = List.rev !order |> fun l -> [ List.nth l 0; List.nth l 1; List.nth l 2 ] in
  Alcotest.(check (list (pair int int))) "round robin"
    [ (1, 1); (2, 1); (3, 1) ] first_three

let test_close_wakes_blocked_senders () =
  let vm = Vm.create () in
  let c = S.chan ~cap:1 () in
  let observed = ref `Nothing in
  ignore (Vm.spawn vm ~name:"tx" (fun () ->
    S.send c 1;
    match S.send c 2 with
    | () -> observed := `Sent
    | exception S.Closed -> observed := `Closed));
  ignore (Vm.spawn vm ~name:"closer" (fun () ->
    S.advance 100;
    S.close c));
  Vm.run vm;
  Alcotest.(check bool) "blocked sender saw Closed" true (!observed = `Closed)

let test_mean_runnable_tracks_load () =
  let vm = Vm.create () in
  for _ = 1 to 5 do
    ignore (Vm.spawn vm (fun () -> S.advance 10_000))
  done;
  Vm.run vm;
  let m = Vm.mean_runnable vm in
  Alcotest.(check bool)
    (Printf.sprintf "mean runnable %.1f ~ 5" m)
    true
    (m > 4.0 && m <= 5.01)

let test_sleep_ordering () =
  let order = ref [] in
  let vm = Vm.create () in
  ignore (Vm.spawn vm (fun () ->
    S.sleep_ns 300;
    order := 300 :: !order));
  ignore (Vm.spawn vm (fun () ->
    S.sleep_ns 100;
    order := 100 :: !order));
  ignore (Vm.spawn vm (fun () ->
    S.sleep_ns 200;
    order := 200 :: !order));
  Vm.run vm;
  Alcotest.(check (list int)) "wakes in deadline order" [ 100; 200; 300 ]
    (List.rev !order)

let test_run_not_reentrant () =
  let vm = Vm.create () in
  ignore (Vm.spawn vm (fun () -> ()));
  Vm.run vm;
  (* a second run on a drained machine is a no-op, not an error *)
  Vm.run vm;
  Alcotest.(check pass) "second run harmless" () ()

let test_deep_spawn_chain () =
  (* spawn-depth stress: each thread spawns the next; also exercises
     O(1) stack behaviour of the effect handler chain *)
  let vm = Vm.create () in
  let depth = 2_000 in
  let reached = ref 0 in
  let rec chain n () =
    reached := n;
    S.advance 1;
    if n < depth then ignore (S.spawn (chain (n + 1)))
  in
  ignore (Vm.spawn vm (chain 1));
  Vm.run vm;
  Alcotest.(check int) "all spawned" depth !reached

let test_long_advance_loop_constant_stack () =
  (* a million advances through the effect handler must not grow the
     stack (continue in tail position) *)
  let vm = Vm.create ~config:Vm.Config.single_core () in
  ignore (Vm.spawn vm (fun () ->
    for _ = 1 to 1_000_000 do
      S.advance 1
    done));
  Vm.run vm;
  Alcotest.(check int) "clock summed" 1_000_000 (Vm.now vm)

let qcheck_chan_preserves_content =
  QCheck.Test.make ~name:"channel transfers exactly its input"
    ~count:50
    QCheck.(pair (int_range 1 5) (small_list small_int))
    (fun (cap, xs) ->
      let vm = Vm.create () in
      let c = S.chan ~cap () in
      let got = ref [] in
      ignore (Vm.spawn vm (fun () ->
        List.iter (fun v -> S.send c v) xs;
        S.close c));
      ignore (Vm.spawn vm (fun () ->
        try
          while true do
            got := S.recv c :: !got
          done
        with S.Closed -> ()));
      Vm.run vm;
      List.rev !got = xs)

(* ---- installed environment ----------------------------------------- *)

module Control = Telemetry.Control

(* A marker environment: its clock reads a fixed value and its charges
   are tallied, so a test can tell whether it is the one installed. *)
let with_marker_env f =
  let charged = ref 0 in
  let marker = { Control.now = (fun () -> 4242);
                 charge = (fun n -> charged := !charged + n) } in
  let prev = Control.install marker in
  Fun.protect ~finally:(fun () -> Control.restore prev) (fun () ->
    f charged)

let check_marker_restored charged =
  Alcotest.(check int) "clock restored" 4242 (Control.now_ns ());
  Control.advance 7;
  Alcotest.(check int) "charge restored" 7 !charged

let test_env_installed_and_restored () =
  with_marker_env @@ fun charged ->
  let vm =
    run_main (fun () ->
      S.advance 100;
      Alcotest.(check int) "virtual clock inside" 100 (Control.now_ns ());
      Control.advance 50;
      Alcotest.(check int) "charge advances the thread" 150 (S.now_ns ()))
  in
  Alcotest.(check int) "final vnow" 150 (Vm.now vm);
  Alcotest.(check int) "nothing charged to the outer env" 0 !charged;
  check_marker_restored charged

let test_env_restored_after_failure () =
  with_marker_env @@ fun charged ->
  let vm = Vm.create () in
  ignore (Vm.spawn vm ~name:"boom" (fun () ->
    Control.advance 10;
    failwith "bang"));
  (match Vm.run vm with
   | () -> Alcotest.fail "expected failure"
   | exception Vm.Thread_failure ("boom", Failure _) -> ());
  Alcotest.(check int) "nothing charged to the outer env" 0 !charged;
  check_marker_restored charged

let () =
  Alcotest.run "vm"
    [ ( "scheduler",
        [ Alcotest.test_case "advance accumulates" `Quick
            test_advance_accumulates;
          Alcotest.test_case "mutex serializes" `Quick test_mutex_serializes;
          Alcotest.test_case "unlock by non-owner fails" `Quick
            test_unlock_not_owner_fails;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "join waits" `Quick test_join_waits;
          Alcotest.test_case "thread failure reported" `Quick
            test_thread_failure_reported;
          Alcotest.test_case "spawn inside" `Quick test_spawn_inside ] );
      ( "channels",
        [ Alcotest.test_case "fifo and close" `Quick test_chan_fifo_and_close;
          Alcotest.test_case "send blocks on full" `Quick
            test_send_blocks_on_full;
          Alcotest.test_case "recv on closed" `Quick test_recv_on_closed_raises;
          Alcotest.test_case "try_recv" `Quick test_try_recv;
          QCheck_alcotest.to_alcotest qcheck_chan_preserves_content ] );
      ( "machine model",
        [ Alcotest.test_case "sleep consumes no cpu" `Quick
            test_sleep_is_not_cpu;
          Alcotest.test_case "dilation beyond capacity" `Quick
            test_dilation_beyond_capacity;
          Alcotest.test_case "tls per vthread" `Quick test_tls_per_vthread;
          Alcotest.test_case "mean runnable" `Quick
            test_mean_runnable_tracks_load ] );
      ( "edge cases",
        [ Alcotest.test_case "yield interleaves" `Quick
            test_yield_interleaves_equal_clocks;
          Alcotest.test_case "close wakes senders" `Quick
            test_close_wakes_blocked_senders;
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "re-run harmless" `Quick test_run_not_reentrant;
          Alcotest.test_case "deep spawn chain" `Quick test_deep_spawn_chain;
          Alcotest.test_case "1M advances, O(1) stack" `Slow
            test_long_advance_loop_constant_stack ] );
      ( "environment",
        [ Alcotest.test_case "installed for the run, then restored" `Quick
            test_env_installed_and_restored;
          Alcotest.test_case "restored after a thread raised" `Quick
            test_env_restored_after_failure ] ) ]
