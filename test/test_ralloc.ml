(** Ralloc reimplementation: size classes, superblock lifecycle,
    thread caches, large allocations, roots, pptrs, recovery. *)

module Region = Shm.Region

let fresh ?(size = 8 * 1024 * 1024) () =
  let reg = Region.create ~name:"heap" ~size ~pkey:0 () in
  (reg, Ralloc.create reg)

let test_class_of_size () =
  Alcotest.(check int) "size 1 -> class 0" 0 (Ralloc.class_of_size 1);
  Alcotest.(check int) "size 16 -> class 0" 0 (Ralloc.class_of_size 16);
  Alcotest.(check int) "size 17 -> class 1" 1 (Ralloc.class_of_size 17);
  Alcotest.(check int) "max small maps to last class"
    (Array.length Ralloc.size_classes - 1)
    (Ralloc.class_of_size Ralloc.max_small);
  Alcotest.(check int) "beyond max small is large"
    (Array.length Ralloc.size_classes)
    (Ralloc.class_of_size (Ralloc.max_small + 1))

(* Four classes per doubling above 128 B: no request wastes a quarter
   of its block or more. *)
let test_class_geometry () =
  let classes = Ralloc.size_classes in
  let n = Array.length classes in
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "class %d is a multiple of 16" c)
        0 (c mod 16);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "class %d above class %d" c classes.(i - 1))
          true (c > classes.(i - 1)))
    classes;
  Alcotest.(check int) "the last class is max_small" Ralloc.max_small
    classes.(n - 1);
  for size = 129 to Ralloc.max_small do
    let block = classes.(Ralloc.class_of_size size) in
    if block < size || 4 * block >= 5 * size then
      Alcotest.failf "size %d gets a %d B block" size block
  done

let test_alloc_separates_blocks () =
  let reg, h = fresh () in
  let a = Ralloc.alloc h 64 and b = Ralloc.alloc h 64 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Region.write_i64 reg a 1;
  Region.write_i64 reg b 2;
  Alcotest.(check int) "no overlap" 1 (Region.read_i64 reg a)

let test_usable_size () =
  let _, h = fresh () in
  let a = Ralloc.alloc h 50 in
  Alcotest.(check int) "rounded to class" 64 (Ralloc.usable_size h a);
  let big = Ralloc.alloc h 100_000 in
  Alcotest.(check bool) "large usable covers request" true
    (Ralloc.usable_size h big >= 100_000)

let test_free_reuse_through_cache () =
  let _, h = fresh () in
  let a = Ralloc.alloc h 64 in
  Ralloc.free h a;
  let b = Ralloc.alloc h 64 in
  Alcotest.(check int) "cache returns the freed block" a b

let test_used_bytes_accounting () =
  let _, h = fresh () in
  Alcotest.(check int) "fresh heap unused" 0 (Ralloc.used_bytes h);
  let offs = List.init 100 (fun _ -> Ralloc.alloc h 128) in
  Alcotest.(check bool) "used grows" true (Ralloc.used_bytes h >= 100 * 128);
  List.iter (Ralloc.free h) offs;
  Ralloc.flush_thread_cache h;
  Alcotest.(check int) "all returned" 0 (Ralloc.used_bytes h)

let test_superblock_released_when_empty () =
  let _, h = fresh ~size:(2 * 1024 * 1024) () in
  (* Exhaust most of the heap with one class, free everything, then
     allocate a different class: storage must be recycled. *)
  let n = 100 in
  let offs = List.init n (fun _ -> Ralloc.alloc h 12_000) in
  List.iter (Ralloc.free h) offs;
  Ralloc.flush_thread_cache h;
  let offs2 = List.init n (fun _ -> Ralloc.alloc h 3_000) in
  Alcotest.(check int) "second class allocated fine" n (List.length offs2);
  Ralloc.check_invariants h

let test_large_alloc_roundtrip () =
  let reg, h = fresh () in
  let big = Ralloc.alloc h (3 * Ralloc.superblock_size) in
  Region.write_i64 reg (big + (3 * Ralloc.superblock_size) - 8) 7;
  Ralloc.check_invariants h;
  Ralloc.free h big;
  Alcotest.(check int) "freed" 0 (Ralloc.used_bytes h);
  let big2 = Ralloc.alloc h (3 * Ralloc.superblock_size) in
  Alcotest.(check bool) "storage reused" true (big2 <> 0);
  Ralloc.check_invariants h

let test_out_of_heap () =
  let _, h = fresh ~size:(256 * 1024) () in
  (match
     let rec go acc = go (Ralloc.alloc h 16_000 :: acc) in
     go []
   with
  | _ -> Alcotest.fail "expected Out_of_heap"
  | exception Ralloc.Out_of_heap -> ());
  Ralloc.check_invariants h

let test_free_rejects_garbage () =
  let _, h = fresh () in
  List.iter
    (fun off ->
      match Ralloc.free h off with
      | _ -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())
    [ -1; 0; 17 ]

let test_roots_and_pptr () =
  let reg, h = fresh () in
  let a = Ralloc.alloc h 64 in
  Ralloc.set_root h 5 a;
  Alcotest.(check int) "root readable" a (Ralloc.get_root h 5);
  Alcotest.(check int) "unset root is null" 0 (Ralloc.get_root h 6);
  Ralloc.set_root h 5 0;
  Alcotest.(check int) "root cleared" 0 (Ralloc.get_root h 5);
  (* raw pptr cells *)
  let cell = Ralloc.alloc h 16 in
  Ralloc.Pptr.store reg ~at:cell a;
  Alcotest.(check int) "pptr resolves" a (Ralloc.Pptr.load reg ~at:cell);
  Alcotest.(check bool) "non-null" false (Ralloc.Pptr.is_null reg ~at:cell);
  Ralloc.Pptr.store reg ~at:cell 0;
  Alcotest.(check bool) "null encoding" true (Ralloc.Pptr.is_null reg ~at:cell)

let test_root_id_bounds () =
  let _, h = fresh () in
  (match Ralloc.set_root h Ralloc.root_slots 1 with
   | _ -> Alcotest.fail "expected bounds failure"
   | exception Invalid_argument _ -> ())

let test_recovery_scan () =
  let path = Filename.temp_file "heap" ".img" in
  let reg, h = fresh () in
  let keep = Ralloc.alloc h 200 in
  let dead = Ralloc.alloc h 200 in
  Region.write_string reg ~off:keep "survivor";
  Ralloc.free h dead;
  Ralloc.set_root h 0 keep;
  Ralloc.flush h ~path;
  let reg2 = Region.load ~path in
  let h2 = Ralloc.attach reg2 in
  let keep2 = Ralloc.get_root h2 0 in
  Alcotest.(check string) "data reachable after reattach" "survivor"
    (Region.read_string reg2 ~off:keep2 ~len:8);
  Alcotest.(check int) "used bytes rescanned (one block)"
    Ralloc.size_classes.(Ralloc.class_of_size 200)
    (Ralloc.used_bytes h2);
  Ralloc.check_invariants h2;
  Sys.remove path

(* A reloaded image whose every class has a live block and a dead one:
   recovery must rebuild all the partial lists, the last classes'
   included, and keep every live block's bytes. *)
let test_recover_every_class () =
  let path = Filename.temp_file "heap" ".img" in
  let reg, h = fresh () in
  let classes = Array.to_list Ralloc.size_classes in
  let live = List.map (fun sz -> (Ralloc.alloc h sz, sz)) classes in
  List.iter (fun sz -> Ralloc.free h (Ralloc.alloc h sz)) classes;
  List.iter
    (fun (o, sz) -> Region.write_string reg ~off:o (Printf.sprintf "%06d" sz))
    live;
  Ralloc.flush h ~path;
  let reg2 = Region.load ~path in
  Sys.remove path;
  let h2 = Ralloc.attach reg2 in
  Ralloc.recover h2 ~live:(List.map fst live);
  Ralloc.check_invariants h2;
  Alcotest.(check int) "used bytes are the live blocks"
    (List.fold_left ( + ) 0 classes)
    (Ralloc.used_bytes h2);
  List.iter
    (fun (o, sz) ->
      Alcotest.(check string) "live block kept" (Printf.sprintf "%06d" sz)
        (Region.read_string reg2 ~off:o ~len:6))
    live;
  let again = List.map (Ralloc.alloc h2) classes in
  List.iter
    (fun o ->
      Alcotest.(check bool) "a new block is not a live one" false
        (List.mem_assoc o live))
    again;
  Ralloc.check_invariants h2

(* An image formatted under the previous class table records other
   class indices in its superblocks; attach must refuse it. *)
let test_attach_rejects_old_magic () =
  let path = Filename.temp_file "heap" ".img" in
  let _, h = fresh () in
  Ralloc.flush h ~path;
  let reg = Region.load ~path in
  Sys.remove path;
  Region.write_i64 reg 0 0x52414C4C4F433031 (* "RALLOC01" *);
  match Ralloc.attach reg with
  | _ -> Alcotest.fail "expected magic failure"
  | exception Failure _ -> ()

let test_attach_rejects_unformatted () =
  let reg = Region.create ~name:"raw" ~size:(1 lsl 20) ~pkey:0 () in
  (match Ralloc.attach reg with
   | _ -> Alcotest.fail "expected magic failure"
   | exception Failure _ -> ())

let test_multithreaded_churn () =
  let _, h = fresh ~size:(16 * 1024 * 1024) () in
  let threads =
    List.init 4 (fun t ->
      Thread.create
        (fun () ->
          let rng = Random.State.make [| t |] in
          let live = ref [] in
          for _ = 0 to 3_000 do
            let sz = 1 + Random.State.int rng 2_000 in
            live := Ralloc.alloc h sz :: !live;
            if List.length !live > 50 then begin
              match !live with
              | x :: rest ->
                Ralloc.free h x;
                live := rest
              | [] -> ()
            end
          done;
          List.iter (Ralloc.free h) !live;
          Ralloc.flush_thread_cache h)
        ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all memory returned" 0 (Ralloc.used_bytes h);
  Ralloc.check_invariants h

let test_exact_superblock_boundary_sizes () =
  let _, h = fresh () in
  (* sizes straddling the small/large boundary and sb multiples *)
  List.iter
    (fun sz ->
      let o = Ralloc.alloc h sz in
      Alcotest.(check bool) (Printf.sprintf "size %d allocates" sz) true (o <> 0);
      Alcotest.(check bool) "usable covers" true (Ralloc.usable_size h o >= sz);
      Ralloc.free h o)
    [ Ralloc.max_small - 1; Ralloc.max_small; Ralloc.max_small + 1;
      Ralloc.superblock_size - 128; Ralloc.superblock_size;
      Ralloc.superblock_size + 1; (2 * Ralloc.superblock_size) - 128 ];
  Ralloc.flush_thread_cache h;
  Alcotest.(check int) "all returned" 0 (Ralloc.used_bytes h);
  Ralloc.check_invariants h

let test_two_heaps_independent () =
  let rega, ha = fresh () in
  let regb, hb = fresh () in
  let a = Ralloc.alloc ha 64 and b = Ralloc.alloc hb 64 in
  Shm.Region.write_string rega ~off:a "AAAA";
  Shm.Region.write_string regb ~off:b "BBBB";
  Alcotest.(check string) "heap A unaffected by heap B" "AAAA"
    (Shm.Region.read_string rega ~off:a ~len:4);
  Ralloc.set_root ha 0 a;
  Alcotest.(check int) "roots are per-heap" 0 (Ralloc.get_root hb 0)

let test_attach_returns_shared_runtime () =
  let reg, h = fresh () in
  let h2 = Ralloc.attach reg in
  (* both handles share the runtime: an alloc through one is visible
     in the accounting of the other *)
  let o = Ralloc.alloc h 64 in
  Alcotest.(check bool) "shared used accounting" true
    (Ralloc.used_bytes h2 >= 64);
  Ralloc.free h o

let test_root_overwrite () =
  let _, h = fresh () in
  let a = Ralloc.alloc h 64 and b = Ralloc.alloc h 64 in
  Ralloc.set_root h 0 a;
  Ralloc.set_root h 0 b;
  Alcotest.(check int) "root re-points" b (Ralloc.get_root h 0)

(* ---- Heap observatory ------------------------------------------------ *)

let test_heap_map_reconciles () =
  let _, h = fresh () in
  let reconcile tag =
    let m = Ralloc.heap_map h in
    Alcotest.(check int) (tag ^ ": live bytes = used bytes")
      (Ralloc.used_bytes h) m.Ralloc.hm_live_bytes;
    let small =
      Array.fold_left
        (fun a hc -> a + (hc.Ralloc.hc_live * hc.Ralloc.hc_block_size))
        0 m.Ralloc.hm_classes
    in
    Alcotest.(check int) (tag ^ ": classes + large runs sum to live")
      m.Ralloc.hm_live_bytes
      (small + m.Ralloc.hm_large_bytes);
    Alcotest.(check int) (tag ^ ": superblock kinds partition the heap")
      m.Ralloc.hm_total_sbs
      (m.Ralloc.hm_small_sbs + m.Ralloc.hm_large_sbs + m.Ralloc.hm_free_sbs
       + m.Ralloc.hm_fresh_sbs);
    Array.iter
      (fun hc ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: class %d live <= carved <= capacity" tag
             hc.Ralloc.hc_block_size)
          true
          (hc.Ralloc.hc_live <= hc.Ralloc.hc_carved
           && hc.Ralloc.hc_carved <= hc.Ralloc.hc_capacity))
      m.Ralloc.hm_classes
  in
  reconcile "fresh heap";
  let small =
    List.init 200 (fun i -> Ralloc.alloc h (16 + ((i mod 40) * 50)))
  in
  let large =
    List.init 4 (fun i -> Ralloc.alloc h (100_000 + (i * 30_000)))
  in
  reconcile "after mixed allocs";
  (* Every other small block goes back: it parks in the thread cache
     yet must still count as live on both sides of the reconciliation
     (the cache is a loan, not a return). *)
  List.iteri (fun i o -> if i mod 2 = 0 then Ralloc.free h o) small;
  reconcile "with frees parked in the thread cache";
  Ralloc.flush_thread_cache h;
  reconcile "after cache flush";
  List.iteri (fun i o -> if i mod 2 = 1 then Ralloc.free h o) small;
  List.iter (Ralloc.free h) large;
  Ralloc.flush_thread_cache h;
  reconcile "after freeing everything";
  Alcotest.(check int) "empty heap maps to zero live bytes" 0
    (Ralloc.heap_map h).Ralloc.hm_live_bytes

let test_heap_map_fragmentation_monotone () =
  let _, h = fresh () in
  (* 2k+1 single-superblock large runs carved back to back; freeing
     the interior even-indexed ones one at a time punches isolated
     one-superblock holes while the largest free extent (the fresh
     tail) stays put, so the external-fragmentation ratio must climb
     monotonically — the pathological interleaving the observatory
     exists to expose. *)
  let run_bytes = max (Ralloc.max_small + 1) (Ralloc.superblock_size / 2) in
  let k = 8 in
  let runs = Array.init ((2 * k) + 1) (fun _ -> Ralloc.alloc h run_bytes) in
  let frag0 = (Ralloc.heap_map h).Ralloc.hm_ext_frag in
  let prev = ref frag0 in
  for i = 0 to k - 1 do
    Ralloc.free h runs.(2 * i);
    let m = Ralloc.heap_map h in
    Alcotest.(check int)
      (Printf.sprintf "hole %d visible as a free superblock" i)
      (i + 1) m.Ralloc.hm_free_sbs;
    Alcotest.(check bool)
      (Printf.sprintf "ext frag non-decreasing at hole %d (%.4f -> %.4f)" i
         !prev m.Ralloc.hm_ext_frag)
      true
      (m.Ralloc.hm_ext_frag >= !prev -. 1e-9);
    prev := m.Ralloc.hm_ext_frag
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fragmentation climbed overall (%.4f -> %.4f)" frag0 !prev)
    true
    (!prev > frag0 +. 0.01);
  (* Freeing the separators coalesces every hole into one extent
     ending at the carve frontier: the ratio collapses to zero. *)
  Array.iteri
    (fun i o -> if i mod 2 = 1 || i = 2 * k then Ralloc.free h o)
    runs;
  let m = Ralloc.heap_map h in
  Alcotest.(check (float 1e-9)) "defragmented heap has zero ext frag" 0.
    m.Ralloc.hm_ext_frag;
  Alcotest.(check int) "no live bytes remain" 0 m.Ralloc.hm_live_bytes

let qcheck_usable_size_covers_request =
  QCheck.Test.make ~name:"usable_size always covers the request" ~count:200
    QCheck.(int_range 1 200_000)
    (fun sz ->
      let _, h = fresh () in
      let o = Ralloc.alloc h sz in
      let ok = Ralloc.usable_size h o >= sz in
      Ralloc.free h o;
      ok)

let qcheck_churn_preserves_invariants =
  QCheck.Test.make ~name:"random alloc/free preserves heap invariants"
    ~count:25
    QCheck.(small_list (int_range 1 20_000))
    (fun sizes ->
      let _, h = fresh () in
      let offs = List.map (fun sz -> (Ralloc.alloc h sz, sz)) sizes in
      (* no two live blocks overlap *)
      let sorted = List.sort compare offs in
      let rec no_overlap = function
        | (o1, _) :: ((o2, _) :: _ as rest) ->
          o1 + Ralloc.usable_size h o1 <= o2 && no_overlap rest
        | _ -> true
      in
      let ok = no_overlap sorted in
      List.iter (fun (o, _) -> Ralloc.free h o) offs;
      Ralloc.flush_thread_cache h;
      Ralloc.check_invariants h;
      ok && Ralloc.used_bytes h = 0)

let qcheck_pptr_position_independent =
  QCheck.Test.make ~name:"pptr encodes distance, not address" ~count:100
    QCheck.(pair (int_range 64 2048) (int_range 64 2048))
    (fun (cell8, target8) ->
      (* distance 0 encodes null, so a pptr cannot name its own cell *)
      QCheck.assume (cell8 <> target8);
      let reg = Region.create ~name:"q" ~size:65536 ~pkey:0 () in
      let cell = cell8 * 8 and target = target8 * 8 in
      Ralloc.Pptr.store reg ~at:cell target;
      (* the stored word is the self-relative distance *)
      Region.read_i64 reg cell = target - cell
      && Ralloc.Pptr.load reg ~at:cell = target)

let () =
  Alcotest.run "ralloc"
    [ ( "classes",
        [ Alcotest.test_case "class_of_size" `Quick test_class_of_size;
          Alcotest.test_case "four classes per doubling" `Quick
            test_class_geometry;
          Alcotest.test_case "blocks disjoint" `Quick
            test_alloc_separates_blocks;
          Alcotest.test_case "usable_size" `Quick test_usable_size ] );
      ( "lifecycle",
        [ Alcotest.test_case "cache reuse" `Quick test_free_reuse_through_cache;
          Alcotest.test_case "used accounting" `Quick
            test_used_bytes_accounting;
          Alcotest.test_case "superblock release" `Quick
            test_superblock_released_when_empty;
          Alcotest.test_case "large roundtrip" `Quick test_large_alloc_roundtrip;
          Alcotest.test_case "out of heap" `Quick test_out_of_heap;
          Alcotest.test_case "free rejects garbage" `Quick
            test_free_rejects_garbage;
          Alcotest.test_case "multithreaded churn" `Slow
            test_multithreaded_churn;
          Alcotest.test_case "boundary sizes" `Quick
            test_exact_superblock_boundary_sizes;
          Alcotest.test_case "two heaps independent" `Quick
            test_two_heaps_independent;
          Alcotest.test_case "attach shares runtime" `Quick
            test_attach_returns_shared_runtime;
          Alcotest.test_case "root overwrite" `Quick test_root_overwrite;
          Alcotest.test_case "heap map reconciles" `Quick
            test_heap_map_reconciles;
          Alcotest.test_case "heap map fragmentation monotone" `Quick
            test_heap_map_fragmentation_monotone;
          QCheck_alcotest.to_alcotest qcheck_usable_size_covers_request;
          QCheck_alcotest.to_alcotest qcheck_churn_preserves_invariants ] );
      ( "persistence",
        [ Alcotest.test_case "roots and pptr" `Quick test_roots_and_pptr;
          Alcotest.test_case "root bounds" `Quick test_root_id_bounds;
          Alcotest.test_case "recovery scan" `Quick test_recovery_scan;
          Alcotest.test_case "recover every class" `Quick
            test_recover_every_class;
          Alcotest.test_case "attach rejects raw region" `Quick
            test_attach_rejects_unformatted;
          Alcotest.test_case "attach rejects the old format" `Quick
            test_attach_rejects_old_magic;
          QCheck_alcotest.to_alcotest qcheck_pptr_position_independent ] ) ]
