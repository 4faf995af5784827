(** The race-hunting harness: lockdep, heap poisoning, and seeded
    schedule exploration, exercised together over the shared store.

    Unit tests pin down each detector (lock-order inversion,
    self-deadlock, same-class rank inversion, use-after-free faulting);
    the sweep tests then replay concurrent store workloads under ~100
    perturbed-but-deterministic VM schedules with both detectors armed,
    asserting structural invariants at quiescence and zero recorded
    lock-order violations. *)

module Store = Mc_core.Store

(* ---- lockdep unit tests (over OS threads; the wrapper is
   substrate-agnostic) --------------------------------------------- *)

module LD = Platform.Lockdep.Make (Platform.Real_sync)

let check_raises_violation name f =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected Lockdep.Violation")
  | exception Platform.Lockdep.Violation _ -> ()

let test_lockdep_cross_class_inversion () =
  LD.reset ();
  let a = LD.mutex ~cls:"A" () in
  let b = LD.mutex ~cls:"B" () in
  (* Establish A -> B, then attempt B -> A: closes a cycle. *)
  LD.lock a; LD.lock b; LD.unlock b; LD.unlock a;
  LD.lock b;
  check_raises_violation "B->A after A->B" (fun () -> LD.lock a);
  LD.unlock b;
  Alcotest.(check int) "violation recorded" 1 (List.length (LD.violations ()))

let test_lockdep_self_deadlock () =
  LD.reset ();
  let m = LD.mutex ~cls:"M" () in
  LD.lock m;
  check_raises_violation "relock" (fun () -> LD.lock m);
  LD.unlock m

let test_lockdep_same_class_rank () =
  LD.reset ();
  let m0 = LD.mutex ~cls:"stripe" () in
  let m1 = LD.mutex ~cls:"stripe" () in
  (* Increasing creation rank is the sanctioned sweep order... *)
  LD.lock m0; LD.lock m1; LD.unlock m1; LD.unlock m0;
  (* ...decreasing rank is an inversion. *)
  LD.lock m1;
  check_raises_violation "rank inversion" (fun () -> LD.lock m0);
  LD.unlock m1

let test_lockdep_unlock_not_held () =
  LD.reset ();
  let m = LD.mutex ~cls:"M" () in
  check_raises_violation "unheld unlock" (fun () -> LD.unlock m)

let test_lockdep_cross_thread_cycle () =
  (* The cycle need not happen in one thread: thread 1 records
     A -> B; thread 2's B -> A attempt is flagged even though the
     threads never collide at runtime. *)
  LD.reset ();
  let a = LD.mutex ~cls:"A" () in
  let b = LD.mutex ~cls:"B" () in
  let t1 = LD.spawn (fun () -> LD.lock a; LD.lock b; LD.unlock b; LD.unlock a) in
  LD.join t1;
  let caught = ref false in
  let t2 =
    LD.spawn (fun () ->
      LD.lock b;
      (match LD.lock a with
       | () -> ()
       | exception Platform.Lockdep.Violation _ -> caught := true);
      LD.unlock b)
  in
  LD.join t2;
  Alcotest.(check bool) "flagged without a real deadlock" true !caught

(* ---- heap-poisoning unit tests ---------------------------------- *)

module SM = Mc_core.Shared_memory

let test_poisoning_faults_freed_access () =
  let reg = Shm.Region.create ~name:"poison-unit" ~size:(1 lsl 20) ~pkey:0 () in
  let heap = Ralloc.create reg in
  let mem = SM.of_region reg in
  Ralloc.set_poisoning heap true;
  Fun.protect ~finally:(fun () -> Ralloc.set_poisoning heap false)
    (fun () ->
      let off = Ralloc.alloc heap 64 in
      SM.write_i64 mem off 42;
      Alcotest.(check int) "live read" 42 (SM.read_i64 mem off);
      Ralloc.free heap off;
      (match SM.read_i64 mem off with
       | _ -> Alcotest.fail "read of freed block should fault"
       | exception Ralloc.Use_after_free _ -> ());
      (match SM.write_i64 mem (off + 8) 1 with
       | () -> Alcotest.fail "write into freed block should fault"
       | exception Ralloc.Use_after_free _ -> ());
      (* Re-allocating the block heals it. *)
      let off' = Ralloc.alloc heap 64 in
      SM.write_i64 mem off' 7;
      Alcotest.(check int) "recycled block usable" 7 (SM.read_i64 mem off'))

let test_poisoning_off_is_silent () =
  let reg = Shm.Region.create ~name:"poison-off" ~size:(1 lsl 20) ~pkey:0 () in
  let heap = Ralloc.create reg in
  let mem = SM.of_region reg in
  let off = Ralloc.alloc heap 64 in
  Ralloc.free heap off;
  (* Without poisoning the dangling read is undetected (and must not
     raise): the default fast path costs nothing. *)
  ignore (SM.read_i64 mem (off + 8))

(* ---- seeded schedule sweeps over the full store ----------------- *)

module LVm = Platform.Lockdep.Make (Vm.Sync)
module RSt = Store.Make (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (LVm)

let sweep_cfg =
  { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
    stats_slots = 2; evict_batch = 2 }

let run_seed ~seed ~heap_bytes ~cfg body =
  LVm.reset ();
  let vm = Vm.create ~sched_seed:seed ~preempt_jitter:60 () in
  let reg =
    Shm.Region.create ~name:"race-sweep" ~size:heap_bytes ~pkey:0 ()
  in
  let heap = Ralloc.create reg in
  Ralloc.set_poisoning heap true;
  Fun.protect ~finally:(fun () -> Ralloc.set_poisoning heap false)
    (fun () ->
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let st =
             RSt.create
               ~mem:(Mc_core.Shared_memory.of_region reg)
               ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
               cfg
           in
           body st;
           RSt.check_invariants st));
      (* Any use-after-free or lockdep violation inside a fiber
         surfaces here as Vm.Thread_failure — or, when the victim died
         holding a lock its peers then block on, as Vm.Deadlock with
         the root cause in [Vm.failures]. *)
      (match Vm.run vm with
       | () -> ()
       | exception Vm.Thread_failure (name, e) ->
         Alcotest.fail
           (Printf.sprintf "seed %d: thread %s died: %s" seed name
              (Printexc.to_string e))
       | exception Vm.Deadlock d ->
         (match Vm.failures vm with
          | (name, e) :: _ ->
            Alcotest.fail
              (Printf.sprintf "seed %d: thread %s died: %s (peers then %s)"
                 seed name (Printexc.to_string e) d)
          | [] ->
            Alcotest.fail (Printf.sprintf "seed %d: deadlock: %s" seed d)));
      match LVm.violations () with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail (Printf.sprintf "seed %d: lock-order violation: %s"
                         seed v))

let stat_of st k = int_of_string (List.assoc k (RSt.stats st))

let evictions_of st = stat_of st "evictions"

let test_seed_sweep_mixed_workload () =
  (* ~100 distinct interleavings of a mixed workload under real memory
     pressure (distinct 900-byte values overflow the one item
     superblock the 448 KiB region leaves after the store's metadata
     and the small items): sets (some born expired), gets, deletes,
     counters, and an explicit reaper, all racing eviction. *)
  let total_evictions = ref 0 and big_sets = ref 0 and refused = ref 0 in
  for seed = 0 to 99 do
    run_seed ~seed ~heap_bytes:(448 lsl 10) ~cfg:sweep_cfg (fun st ->
      ignore (RSt.set st "ctr" "1");
      let worker t =
        LVm.spawn ~name:(Printf.sprintf "w%d" t) (fun () ->
          for i = 0 to 79 do
            let k = Printf.sprintf "t%d-%d" t i in
            let prev = Printf.sprintf "t%d-%d" t (max 0 (i - 2)) in
            (match i mod 7 with
             | 0 | 1 | 2 ->
               incr big_sets;
               if RSt.set st k (String.make 900 'x') <> Store.Stored then
                 incr refused
             | 3 -> ignore (RSt.set st ~exptime:1 k "soon-dead")
             | 4 -> ignore (RSt.get st prev)
             | 5 -> ignore (RSt.delete st prev)
             | _ -> ignore (RSt.incr st "ctr" 1L));
            LVm.advance 40
          done)
      in
      let reaper =
        LVm.spawn ~name:"reaper" (fun () ->
          (* jump past the 1 s relative expiries, then collect *)
          LVm.advance 1_500_000_000;
          ignore (RSt.reap_expired st))
      in
      let ws = List.init 3 worker in
      List.iter LVm.join ws;
      LVm.join reaper;
      total_evictions := !total_evictions + evictions_of st)
  done;
  Alcotest.(check bool) "sweep exercised eviction" true (!total_evictions > 0);
  (* a racing set may find its room taken once in a while; a heap with
     no room for the item class refuses them all *)
  Alcotest.(check bool)
    (Printf.sprintf "900-byte sets stored (%d of %d refused)" !refused
       !big_sets)
    true
    (!refused * 100 < !big_sets)

let test_seed_sweep_evict_vs_delete () =
  (* The regression the harness was built to catch: eviction collects
     victims from an LRU list while a racing delete frees them. With
     the collect-then-reverify fix this is clean under every schedule;
     with the old deref-after-unlock code, poisoning faults it. The
     deleter runs for the setter's whole lifetime, cycling over the
     key range, so its frees land inside eviction's collect-to-unlink
     window under many of the explored schedules. *)
  let total_evictions = ref 0 in
  for seed = 0 to 49 do
    run_seed ~seed ~heap_bytes:(384 lsl 10) ~cfg:sweep_cfg (fun st ->
      let stop = Atomic.make false in
      let setter =
        LVm.spawn ~name:"setter" (fun () ->
          Fun.protect ~finally:(fun () -> Atomic.set stop true)
            (fun () ->
              for i = 0 to 249 do
                ignore (RSt.set st (Printf.sprintf "k%d" i)
                          (String.make 900 's'));
                LVm.advance 30
              done))
      in
      let deleter =
        LVm.spawn ~name:"deleter" (fun () ->
          let j = ref 0 in
          (* the iteration bound is a safety valve: normally the stop
             flag ends the loop when the setter finishes *)
          while (not (Atomic.get stop)) && !j < 3_000 do
            ignore (RSt.delete st (Printf.sprintf "k%d" (!j mod 250)));
            incr j;
            LVm.advance 5_000
          done)
      in
      LVm.join setter;
      LVm.join deleter;
      total_evictions := !total_evictions + evictions_of st)
  done;
  Alcotest.(check bool) "sweep exercised eviction" true (!total_evictions > 0)

(* ---- eviction passes under seeded schedules ---------------------- *)

let test_eviction_cut_vs_moving_victims () =
  (* Locked readers (optimistic reads off, a bump on every hit) move
     items from the cold end to the head while evictors collect them,
     so a pass often finds its victims no longer the list's tail run
     when it cuts. Setters keep the heap full with fresh keys, so they
     evict too, and a deleter removes some. Poisoning faults any touch
     of a freed victim, and [run_seed] checks both walks of the list.
     Fresh keys never replace one another: every item ever stored is
     still linked, evicted or deleted. *)
  let cfg =
    { sweep_cfg with lru_count = 1; evict_batch = 8; optimistic_reads = false;
      bump_interval_s = 0 }
  in
  let value = String.make 900 'v' in
  let total_evictions = ref 0 in
  for seed = 0 to 29 do
    run_seed ~seed ~heap_bytes:(512 lsl 10) ~cfg (fun st ->
      let key t i = Printf.sprintf "s%d-%d" t i in
      let progress = Array.make 2 0 in
      let setters =
        List.init 2 (fun t ->
          LVm.spawn ~name:(Printf.sprintf "setter%d" t) (fun () ->
            for i = 0 to 119 do
              ignore (RSt.set st (key t i) value);
              progress.(t) <- i;
              LVm.advance 40
            done))
      in
      (* Readers aim at the cold end of what the setters stored. *)
      let readers =
        List.init 3 (fun r ->
          LVm.spawn ~name:(Printf.sprintf "reader%d" r) (fun () ->
            for j = 0 to 299 do
              let t = (j + r) mod 2 in
              let i = max 0 (progress.(t) - 15 - (j * 7 mod 30)) in
              (match RSt.get st (key t i) with
               | Some g when g.Store.value <> value ->
                 Alcotest.fail "torn value"
               | _ -> ());
              LVm.advance 10
            done))
      in
      let evictors =
        List.init 3 (fun e ->
          LVm.spawn ~name:(Printf.sprintf "evictor%d" e) (fun () ->
            for _ = 0 to 29 do
              ignore (RSt.evict_some st ~hint:0);
              LVm.advance 7_000
            done))
      in
      let deleter =
        LVm.spawn ~name:"deleter" (fun () ->
          for j = 0 to 39 do
            ignore (RSt.delete st (key (j mod 2) (progress.(j mod 2) - 5)));
            LVm.advance 5_000
          done)
      in
      List.iter LVm.join (setters @ readers @ evictors @ [ deleter ]);
      let curr = RSt.curr_items st and evicted = evictions_of st in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: curr + evicted + deleted = total" seed)
        (stat_of st "total_items")
        (curr + evicted + stat_of st "delete_hits");
      total_evictions := !total_evictions + evicted)
  done;
  Alcotest.(check bool) "sweep exercised eviction" true (!total_evictions > 0)

(* ---- batch plane: grouped stripe acquisition ---------------------- *)

let test_stripe_groups_lockdep_clean () =
  (* Grouped acquisition takes same-class item-lock stripes in
     creation-rank (= ascending index) order, holds them across the
     group, and releases between groups. Racing it against single-op
     writers (whose own [with_stripes] hold skips a stripe only in the
     thread that already pins it) must stay lockdep-clean. *)
  run_seed ~seed:7 ~heap_bytes:(512 lsl 10)
    ~cfg:{ sweep_cfg with lock_count = 8 }
    (fun st ->
      for i = 0 to 19 do
        ignore (RSt.set st (Printf.sprintf "g%d" i) (string_of_int i))
      done;
      let reader =
        LVm.spawn ~name:"grouped-reader" (fun () ->
          let keys = List.init 6 (fun i -> Printf.sprintf "g%d" i) in
          let stripes =
            List.sort_uniq compare (List.map (RSt.stripe_of st) keys)
          in
          for _round = 0 to 24 do
            RSt.with_stripes st ~stripes (fun () ->
              List.iter (fun k -> ignore (RSt.get st k)) keys);
            (* released between groups: a fresh group re-acquires *)
            LVm.advance 50
          done)
      in
      let writer =
        LVm.spawn ~name:"writer" (fun () ->
          for i = 0 to 49 do
            ignore (RSt.set st (Printf.sprintf "g%d" (i mod 20)) "w");
            LVm.advance 35
          done)
      in
      LVm.join reader;
      LVm.join writer)

let test_stripe_group_inversion_goes_red () =
  (* The discipline is real: handing [with_stripes] a descending pair
     acquires same-class mutexes against creation-rank order, and
     lockdep must flag it. *)
  LVm.reset ();
  let vm = Vm.create ~sched_seed:0 () in
  let reg =
    Shm.Region.create ~name:"stripe-inv" ~size:(1 lsl 20) ~pkey:0 ()
  in
  let heap = Ralloc.create reg in
  let caught = ref false in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
       let st =
         RSt.create
           ~mem:(Mc_core.Shared_memory.of_region reg)
           ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
           { sweep_cfg with lock_count = 8 }
       in
       match RSt.with_stripes st ~stripes:[ 5; 2 ] (fun () -> ()) with
       | () -> ()
       | exception Platform.Lockdep.Violation _ -> caught := true));
  (match Vm.run vm with
   | () -> ()
   | exception Vm.Thread_failure (_, Platform.Lockdep.Violation _) ->
     caught := true
   | exception _ -> ());
  Alcotest.(check bool) "descending stripe order goes red" true
    (!caught || LVm.violations () <> [])

let test_store_locking_is_lockdep_clean () =
  (* One deterministic pass over every store entry point (including
     resize and fold_keys, whose stripe sweeps rely on the same-class
     rank rule) with lockdep active: no violation may be recorded. *)
  run_seed ~seed:0 ~heap_bytes:(4 lsl 20)
    ~cfg:{ sweep_cfg with hashpower = 4; lock_count = 8 }
    (fun st ->
      for i = 0 to 99 do
        ignore (RSt.set st (Printf.sprintf "k%d" i) (string_of_int i))
      done;
      ignore (RSt.resize st);
      ignore (RSt.fold_keys st (fun n _ ~nbytes:_ ~exptime:_ -> n + 1) 0);
      ignore (RSt.incr st "k1" 1L);
      ignore (RSt.append st "k2" "!");
      ignore (RSt.touch st "k3" 100);
      ignore (RSt.reap_expired st);
      RSt.flush_all st;
      ignore (RSt.stats st))


(* ---- replace in place under seeded schedules --------------------- *)

let used_bytes st = int_of_string (List.assoc "bytes" (RSt.stats st))

let test_locked_reader_across_replace () =
  (* Locked gets (optimistic reads off) take a reference, then copy the
     value with the stripe released; overwriters replace the item in
     place meanwhile. The copy must be intact (poisoning faults a read
     of a freed block), and the reader's release must free the old
     block: 20 KB values take whole superblocks, which Ralloc returns
     at once, so the heap ends exactly where one item left it. *)
  let cfg = { sweep_cfg with optimistic_reads = false } in
  let overlaps = ref 0 in
  for seed = 0 to 19 do
    run_seed ~seed ~heap_bytes:(4 lsl 20) ~cfg (fun st ->
      let value tag = String.make 20_000 (Char.chr (Char.code 'a' + tag)) in
      ignore (RSt.set st "hot" (value 0));
      let used0 = used_bytes st in
      let stores = ref 0 in
      let writers =
        List.init 2 (fun w ->
          LVm.spawn ~name:(Printf.sprintf "w%d" w) (fun () ->
            for i = 0 to 11 do
              let tag = 1 + (w * 12) + i in
              ignore (RSt.set st ~flags:tag "hot" (value tag));
              incr stores;
              LVm.advance 300
            done))
      in
      let readers =
        List.init 2 (fun r ->
          LVm.spawn ~name:(Printf.sprintf "r%d" r) (fun () ->
            for _ = 0 to 15 do
              let before = !stores in
              (match RSt.get st "hot" with
               | None -> Alcotest.fail "hot key missing"
               | Some g ->
                 Alcotest.(check bool) "intact value" true
                   (g.Store.value = value g.Store.flags));
              if !stores > before then incr overlaps;
              LVm.advance 200
            done))
      in
      List.iter LVm.join (writers @ readers);
      Alcotest.(check int) "every replaced block freed" used0 (used_bytes st);
      Alcotest.(check int) "one item" 1 (RSt.curr_items st))
  done;
  Alcotest.(check bool) "stores landed during gets" true (!overlaps > 0)

let test_overwriters_vs_optimistic_readers () =
  (* Overwriters on three hot keys against optimistic readers: every
     hit is one writer's whole (value, flags) pair, never a snapshot
     stitched from an item and its heir. *)
  let payload tag =
    let fill = Char.chr (Char.code 'a' + (tag mod 26)) in
    Printf.sprintf "%03d%s" tag (String.make (40 + (tag mod 60)) fill)
  in
  for seed = 0 to 29 do
    run_seed ~seed ~heap_bytes:(1 lsl 20) ~cfg:sweep_cfg (fun st ->
      let key i = Printf.sprintf "h%d" (i mod 3) in
      let writers =
        List.init 3 (fun w ->
          LVm.spawn ~name:(Printf.sprintf "w%d" w) (fun () ->
            for i = 0 to 59 do
              let tag = (w * 100) + (i mod 97) in
              ignore (RSt.set st ~flags:tag (key (i + w)) (payload tag));
              LVm.advance 30
            done))
      in
      let readers =
        List.init 3 (fun r ->
          LVm.spawn ~name:(Printf.sprintf "r%d" r) (fun () ->
            for i = 0 to 79 do
              (match RSt.get st (key (i + r)) with
               | None -> ()
               | Some g ->
                 Alcotest.(check string) "untorn hit" (payload g.Store.flags)
                   g.Store.value);
              LVm.advance 20
            done))
      in
      List.iter LVm.join (writers @ readers))
  done

let () =
  Alcotest.run "race"
    [ ( "lockdep",
        [ Alcotest.test_case "cross-class inversion" `Quick
            test_lockdep_cross_class_inversion;
          Alcotest.test_case "self-deadlock" `Quick
            test_lockdep_self_deadlock;
          Alcotest.test_case "same-class rank order" `Quick
            test_lockdep_same_class_rank;
          Alcotest.test_case "unlock not held" `Quick
            test_lockdep_unlock_not_held;
          Alcotest.test_case "cross-thread cycle" `Quick
            test_lockdep_cross_thread_cycle ] );
      ( "poisoning",
        [ Alcotest.test_case "freed access faults" `Quick
            test_poisoning_faults_freed_access;
          Alcotest.test_case "disabled is silent" `Quick
            test_poisoning_off_is_silent ] );
      ( "seed sweeps",
        [ Alcotest.test_case "100-seed mixed workload" `Slow
            test_seed_sweep_mixed_workload;
          Alcotest.test_case "50-seed evict vs delete" `Slow
            test_seed_sweep_evict_vs_delete;
          Alcotest.test_case "30-seed eviction cut vs moving victims" `Slow
            test_eviction_cut_vs_moving_victims;
          Alcotest.test_case "store is lockdep-clean" `Quick
            test_store_locking_is_lockdep_clean ] );
      ( "stripe groups",
        [ Alcotest.test_case "grouped acquisition is clean" `Quick
            test_stripe_groups_lockdep_clean;
          Alcotest.test_case "order inversion goes red" `Quick
            test_stripe_group_inversion_goes_red ] );
      ( "replace in place",
        [ Alcotest.test_case "locked reader across a replace" `Quick
            test_locked_reader_across_replace;
          Alcotest.test_case "overwriters vs optimistic readers" `Quick
            test_overwriters_vs_optimistic_readers ] ) ]
