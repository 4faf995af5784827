(** The baseline's slab allocator. *)

module Slab = Mc_core.Slab
module PM = Mc_core.Private_memory

let fresh ?(limit = 16 lsl 20) () =
  let arena = PM.create ~limit:(2 * limit) in
  Slab.create ~arena ~mem_limit:limit

let alloc t size = fst (Slab.alloc t size)

let test_chunk_size_progression () =
  let sizes = Slab.chunk_sizes in
  Alcotest.(check int) "first class is 96" 96 sizes.(0);
  Alcotest.(check int) "last class is the page"
    Slab.page_size
    sizes.(Slab.n_classes - 1);
  for i = 1 to Slab.n_classes - 1 do
    if not (sizes.(i) > sizes.(i - 1)) then
      Alcotest.fail "sizes must increase";
    if sizes.(i) mod 8 <> 0 then Alcotest.fail "sizes must be 8-aligned"
  done

let test_growth_factor () =
  (* memcached's -f 1.25: each class is at most 25%ish larger *)
  let sizes = Slab.chunk_sizes in
  for i = 1 to Slab.n_classes - 2 do
    let ratio = float_of_int sizes.(i) /. float_of_int sizes.(i - 1) in
    if ratio > 1.33 then
      Alcotest.fail
        (Printf.sprintf "ratio %f between classes %d and %d" ratio (i - 1) i)
  done

let test_class_of_size () =
  Alcotest.(check int) "tiny goes to class 0" 0 (Slab.class_of_size 1);
  Alcotest.(check int) "96 in class 0" 0 (Slab.class_of_size 96);
  Alcotest.(check int) "97 in class 1" 1 (Slab.class_of_size 97);
  Alcotest.(check int) "oversize rejected" (-1)
    (Slab.class_of_size (Slab.page_size + 1))

let test_alloc_free_reuse () =
  let t = fresh () in
  let a = alloc t 100 in
  Alcotest.(check bool) "allocated" true (a <> 0);
  Alcotest.(check int) "usable = chunk size" Slab.chunk_sizes.(1)
    (Slab.usable_size t a);
  Slab.free t a;
  let b = alloc t 100 in
  Alcotest.(check int) "free list reuse" a b

let test_same_page_same_class () =
  let t = fresh () in
  let a = alloc t 100 and b = alloc t 100 in
  Alcotest.(check int) "same class" (Slab.class_of_off t a)
    (Slab.class_of_off t b);
  Alcotest.(check int) "chunks are chunk-size apart"
    Slab.chunk_sizes.(Slab.class_of_off t a)
    (abs (b - a))

let test_used_accounting () =
  let t = fresh () in
  let a = alloc t 200 in
  let expect = Slab.chunk_sizes.(Slab.class_of_size 200) in
  Alcotest.(check int) "used counts chunks" expect (Slab.used_bytes t);
  Slab.free t a;
  Alcotest.(check int) "freed" 0 (Slab.used_bytes t)

let test_mem_limit_enforced () =
  let t = fresh ~limit:(2 lsl 20) () in
  (* a 2-page limit: one page for a jumbo class, one for a small
     class; any third class's page must be denied *)
  Alcotest.(check bool) "first page" true
    (alloc t (Slab.page_size / 2) <> 0);
  Alcotest.(check bool) "second page" true (alloc t 100 <> 0);
  Alcotest.(check int) "third page denied" 0 (alloc t 10_000)

let test_big_alloc () =
  let t = fresh () in
  let off = alloc t (3 * Slab.page_size) in
  Alcotest.(check bool) "big alloc works" true (off <> 0);
  Alcotest.(check int) "usable" (3 * Slab.page_size) (Slab.usable_size t off);
  Slab.free t off;
  Alcotest.(check int) "big free returns bytes" 0 (Slab.used_bytes t)

let test_free_garbage_rejected () =
  let t = fresh () in
  ignore (alloc t 100);
  (match Slab.free t (50 * Slab.page_size) with
   | _ -> Alcotest.fail "expected rejection"
   | exception _ -> ())

let qcheck_no_overlap =
  QCheck.Test.make ~name:"live slab chunks never overlap" ~count:30
    QCheck.(small_list (int_range 1 20_000))
    (fun sizes ->
      let t = fresh () in
      let offs =
        List.filter_map
          (fun sz ->
            let o = alloc t sz in
            if o = 0 then None else Some o)
          sizes
      in
      let sorted = List.sort compare offs in
      let rec ok = function
        | o1 :: (o2 :: _ as rest) ->
          o1 + Slab.usable_size t o1 <= o2 && ok rest
        | _ -> true
      in
      ok sorted)

let () =
  Alcotest.run "slab"
    [ ( "slab",
        [ Alcotest.test_case "chunk sizes" `Quick test_chunk_size_progression;
          Alcotest.test_case "growth factor" `Quick test_growth_factor;
          Alcotest.test_case "class_of_size" `Quick test_class_of_size;
          Alcotest.test_case "alloc/free reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "page layout" `Quick test_same_page_same_class;
          Alcotest.test_case "used accounting" `Quick test_used_accounting;
          Alcotest.test_case "mem limit" `Quick test_mem_limit_enforced;
          Alcotest.test_case "big alloc" `Quick test_big_alloc;
          Alcotest.test_case "free garbage" `Quick test_free_garbage_rejected;
          QCheck_alcotest.to_alcotest qcheck_no_overlap ] ) ]
