(** The store proper, exercised identically over both instantiations:
    private memory + slab (the baseline server's) and shared region +
    Ralloc (the protected library's). Includes a model-based property
    test against a reference Hashtbl. *)

module Store = Mc_core.Store

module Make_suite
    (M : Mc_core.Memory_intf.MEMORY)
    (A : Mc_core.Memory_intf.ALLOCATOR)
    (Env : sig
       val name : string
       val fresh : ?cfg:Store.config -> unit -> M.t * A.t

       val live_bytes : A.t -> int
       (** Bytes held by allocated blocks, per-thread caches excluded. *)
     end) =
struct
  module St = Store.Make (M) (A) (Platform.Real_sync)

  let small_cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }

  let fresh ?(cfg = small_cfg) () =
    let mem, alloc = Env.fresh ~cfg () in
    St.create ~mem ~alloc cfg

  let check_sr = Alcotest.(check bool)

  let get_value st k =
    match St.get st k with Some r -> Some r.Store.value | None -> None

  let test_set_get () =
    let st = fresh () in
    check_sr "stored" true (St.set st ~flags:5 "alpha" "one" = Store.Stored);
    (match St.get st "alpha" with
     | Some r ->
       Alcotest.(check string) "value" "one" r.Store.value;
       Alcotest.(check int) "flags" 5 r.Store.flags
     | None -> Alcotest.fail "hit expected");
    Alcotest.(check (option string)) "miss" None (get_value st "beta");
    (* overwrite *)
    check_sr "overwrite" true (St.set st "alpha" "two" = Store.Stored);
    Alcotest.(check (option string)) "new value" (Some "two")
      (get_value st "alpha");
    St.check_invariants st

  let test_cas_monotonic () =
    let st = fresh () in
    ignore (St.set st "k" "1");
    let c1 = (Option.get (St.get st "k")).Store.cas in
    ignore (St.set st "k" "2");
    let c2 = (Option.get (St.get st "k")).Store.cas in
    Alcotest.(check bool) "cas increases" true (Int64.compare c2 c1 > 0)

  let test_add_replace () =
    let st = fresh () in
    check_sr "add new" true (St.add st "k" "v" = Store.Stored);
    check_sr "add existing fails" true (St.add st "k" "w" = Store.Not_stored);
    Alcotest.(check (option string)) "unchanged" (Some "v") (get_value st "k");
    check_sr "replace existing" true (St.replace st "k" "w" = Store.Stored);
    check_sr "replace missing fails" true
      (St.replace st "nope" "x" = Store.Not_stored);
    St.check_invariants st

  let test_cas_op () =
    let st = fresh () in
    check_sr "cas on missing" true
      (St.cas st ~cas:1L "k" "v" = Store.Not_found);
    ignore (St.set st "k" "v0");
    let c = (Option.get (St.get st "k")).Store.cas in
    check_sr "stale cas" true (St.cas st ~cas:99999L "k" "v1" = Store.Exists);
    Alcotest.(check (option string)) "unchanged" (Some "v0") (get_value st "k");
    check_sr "fresh cas" true (St.cas st ~cas:c "k" "v1" = Store.Stored);
    Alcotest.(check (option string)) "updated" (Some "v1") (get_value st "k");
    check_sr "reused cas rejected" true
      (St.cas st ~cas:c "k" "v2" = Store.Exists)

  let test_append_prepend () =
    let st = fresh () in
    check_sr "append missing" true (St.append st "k" "x" = Store.Not_stored);
    ignore (St.set st ~flags:3 "k" "mid");
    check_sr "append" true (St.append st "k" ">>" = Store.Stored);
    check_sr "prepend" true (St.prepend st "k" "<<" = Store.Stored);
    (match St.get st "k" with
     | Some r ->
       Alcotest.(check string) "combined" "<<mid>>" r.Store.value;
       Alcotest.(check int) "flags preserved" 3 r.Store.flags
     | None -> Alcotest.fail "hit expected");
    St.check_invariants st

  let test_delete () =
    let st = fresh () in
    Alcotest.(check bool) "delete missing" false (St.delete st "k");
    ignore (St.set st "k" "v");
    Alcotest.(check bool) "delete hit" true (St.delete st "k");
    Alcotest.(check (option string)) "gone" None (get_value st "k");
    Alcotest.(check bool) "double delete" false (St.delete st "k");
    St.check_invariants st

  let test_counters () =
    let st = fresh () in
    check_sr "incr missing" true (St.incr st "n" 1L = Store.Counter_not_found);
    ignore (St.set st "n" "10");
    check_sr "incr" true (St.incr st "n" 5L = Store.Counter 15L);
    Alcotest.(check (option string)) "textual" (Some "15") (get_value st "n");
    check_sr "decr" true (St.decr st "n" 6L = Store.Counter 9L);
    check_sr "decr clamps at zero" true (St.decr st "n" 100L = Store.Counter 0L);
    ignore (St.set st "s" "pony");
    check_sr "non numeric" true (St.incr st "s" 1L = Store.Non_numeric);
    St.check_invariants st

  let test_counter_growth_reallocates () =
    let st = fresh () in
    ignore (St.set st "n" "9");
    (* growing from 1 digit to 20 digits overflows the block's slack
       and forces the re-store path *)
    (match St.incr st "n" (Int64.neg 616L) (* u64: 2^64-616 *) with
     | Store.Counter v ->
       Alcotest.(check string) "20-digit value intact"
         (Printf.sprintf "%Lu" v)
         (Option.get (get_value st "n"))
     | _ -> Alcotest.fail "counter expected");
    St.check_invariants st

  let test_counter_wraps_u64 () =
    let st = fresh () in
    ignore (St.set st "n" "18446744073709551615");
    check_sr "wraps like memcached" true (St.incr st "n" 1L = Store.Counter 0L)

  let test_touch () =
    let st = fresh () in
    Alcotest.(check bool) "touch missing" false (St.touch st "k" 100);
    ignore (St.set st "k" "v");
    Alcotest.(check bool) "touch hit" true (St.touch st "k" 100);
    Alcotest.(check (option string)) "still there" (Some "v") (get_value st "k")

  let test_expiry_absolute_past () =
    let st = fresh () in
    (* an absolute exptime in the past (2001) expires immediately *)
    ignore (St.set st ~exptime:1_000_000_000 "old" "v");
    Alcotest.(check (option string)) "expired on read" None
      (get_value st "old");
    (* expired items can be re-added *)
    check_sr "re-add after expiry" true (St.add st "old" "new" = Store.Stored);
    St.check_invariants st

  let test_flush_all () =
    let st = fresh () in
    ignore (St.set st "a" "1");
    ignore (St.set st "b" "2");
    St.flush_all st;
    Alcotest.(check (option string)) "a flushed" None (get_value st "a");
    Alcotest.(check (option string)) "b flushed" None (get_value st "b");
    ignore (St.set st "c" "3");
    Alcotest.(check (option string)) "new set after flush lives" (Some "3")
      (get_value st "c");
    St.check_invariants st

  let test_stats_counters () =
    let st = fresh () in
    ignore (St.set st "a" "1");
    ignore (St.get st "a");
    ignore (St.get st "miss");
    ignore (St.delete st "a");
    ignore (St.delete st "a");
    let s = St.stats st in
    let get k = int_of_string (List.assoc k s) in
    Alcotest.(check int) "cmd_set" 1 (get "cmd_set");
    Alcotest.(check int) "get_hits" 1 (get "get_hits");
    Alcotest.(check int) "get_misses" 1 (get "get_misses");
    Alcotest.(check int) "delete_hits" 1 (get "delete_hits");
    Alcotest.(check int) "delete_misses" 1 (get "delete_misses");
    Alcotest.(check int) "curr_items" 0 (get "curr_items");
    Alcotest.(check int) "total_items" 1 (get "total_items")

  let test_large_values () =
    let st = fresh () in
    let v = String.init 5120 (fun i -> Char.chr (i land 0xff)) in
    check_sr "5KB set" true (St.set st "big" v = Store.Stored);
    Alcotest.(check (option string)) "5KB get" (Some v) (get_value st "big");
    St.check_invariants st

  let test_many_keys_no_collision_confusion () =
    let st = fresh () in
    for i = 0 to 999 do
      ignore (St.set st (Printf.sprintf "key-%d" i) (string_of_int i))
    done;
    for i = 0 to 999 do
      Alcotest.(check (option string)) "value by key"
        (Some (string_of_int i))
        (get_value st (Printf.sprintf "key-%d" i))
    done;
    Alcotest.(check int) "curr_items" 1000 (St.curr_items st);
    St.check_invariants st

  (* Model-based property: any op sequence agrees with a Hashtbl. *)
  let op_gen =
    QCheck.Gen.(
      let key = map (Printf.sprintf "k%d") (int_range 0 15) in
      let value = map (Printf.sprintf "v%d") (int_range 0 99) in
      frequency
        [ (4, map2 (fun k v -> `Set (k, v)) key value);
          (4, map (fun k -> `Get k) key);
          (2, map (fun k -> `Delete k) key);
          (1, map2 (fun k v -> `Add (k, v)) key value);
          (1, map2 (fun k v -> `Replace (k, v)) key value);
          (1, map2 (fun k v -> `Append (k, v)) key value);
          (1, map2 (fun k d -> `Incr (k, Int64.of_int d)) key (int_range 0 50)) ])

  let qcheck_model =
    QCheck.Test.make
      ~name:(Env.name ^ " agrees with a reference model")
      ~count:60
      QCheck.(make Gen.(list_size (int_range 0 200) op_gen))
      (fun ops ->
        let st = fresh () in
        let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
        let ok = ref true in
        let expect b = if not b then ok := false in
        List.iter
          (fun op ->
            match op with
            | `Set (k, v) ->
              expect (St.set st k v = Store.Stored);
              Hashtbl.replace model k v
            | `Get k ->
              expect (get_value st k = Hashtbl.find_opt model k)
            | `Delete k ->
              expect (St.delete st k = Hashtbl.mem model k);
              Hashtbl.remove model k
            | `Add (k, v) ->
              if Hashtbl.mem model k then
                expect (St.add st k v = Store.Not_stored)
              else begin
                expect (St.add st k v = Store.Stored);
                Hashtbl.replace model k v
              end
            | `Replace (k, v) ->
              if Hashtbl.mem model k then begin
                expect (St.replace st k v = Store.Stored);
                Hashtbl.replace model k v
              end
              else expect (St.replace st k v = Store.Not_stored)
            | `Append (k, v) ->
              (match Hashtbl.find_opt model k with
               | Some old ->
                 expect (St.append st k v = Store.Stored);
                 Hashtbl.replace model k (old ^ v)
               | None -> expect (St.append st k v = Store.Not_stored))
            | `Incr (k, d) ->
              (match Hashtbl.find_opt model k with
               | None -> expect (St.incr st k d = Store.Counter_not_found)
               | Some old ->
                 (match Int64.of_string_opt old with
                  | Some n when n >= 0L ->
                    let expected = Int64.add n d in
                    expect (St.incr st k d = Store.Counter expected);
                    Hashtbl.replace model k (Printf.sprintf "%Lu" expected)
                  | _ -> expect (St.incr st k d = Store.Non_numeric))))
          ops;
        St.check_invariants st;
        expect (St.curr_items st = Hashtbl.length model);
        !ok)

  (* A raise inside a stripe hold must release the stripe: the next
     op on the key would otherwise self-deadlock on it. *)
  let test_raise_releases_stripe () =
    let st = fresh () in
    St.set_lru_selector st
      (Some (fun k -> if k = "boom" then failwith "selector" else None));
    (match St.set st "boom" "v" with
     | _ -> Alcotest.fail "the selector's raise should escape set"
     | exception Failure _ -> ());
    Alcotest.(check int) "no stripe held" 0 (Store.holding_stripes_now ());
    St.set_lru_selector st None;
    check_sr "second set stored" true (St.set st "boom" "v" = Store.Stored)

  (* A store and its footprint: the bytes its blocks hold and
     [curr_items] — what a write that raises inside its commit hold
     must leave as it found them. *)
  let fresh_with_footprint () =
    let mem, alloc = Env.fresh () in
    let st = St.create ~mem ~alloc small_cfg in
    (st, fun () -> (Env.live_bytes alloc, St.curr_items st))

  let raises msg what (f : unit -> Store.store_result) =
    Alcotest.check_raises what (Failure msg) (fun () -> ignore (f ()))

  let check_footprint = Alcotest.(check (pair int int))

  (* A quota charge that raises under the commit hold must not leak
     the new item's block, on a fresh set or an append. *)
  let test_raising_charge_frees_item () =
    let st, footprint = fresh_with_footprint () in
    let quota =
      { Store.fits = (fun ~bytes:_ ~items:_ -> true);
        charge = (fun ~bytes:_ ~items:_ -> failwith "charge") }
    in
    check_sr "seed" true (St.set st "keep" "v" = Store.Stored);
    let before = footprint () in
    raises "charge" "set" (fun () -> St.set st ~quota "k" "value");
    check_footprint "set leaves the footprint" before (footprint ());
    raises "charge" "append" (fun () -> St.append st ~quota "keep" "more");
    check_footprint "append leaves the footprint" before (footprint ());
    St.check_invariants st;
    check_sr "later set stored" true (St.set st "k" "value" = Store.Stored)

  (* An evict hook that raises while the commit's lookup reclaims an
     expired item: the expired item goes and the new block is freed, so
     the store ends as it was before the expired item was written. *)
  let test_raising_evict_hook_frees_item () =
    let st, footprint = fresh_with_footprint () in
    check_sr "seed" true (St.set st "keep" "v" = Store.Stored);
    let before = footprint () in
    check_sr "expired write" true
      (St.set st ~exptime:(-1) "k" "old" = Store.Stored);
    St.set_evict_hook st (Some (fun ~key:_ ~bytes:_ -> failwith "hook"));
    raises "hook" "set" (fun () -> St.set st "k" "new");
    St.set_evict_hook st None;
    check_footprint "only the expired item went" before (footprint ());
    St.check_invariants st;
    check_sr "later set stored" true (St.set st "k" "new" = Store.Stored)

  (* The LRU choice comes before the quota charge: a selector that
     raises books nothing against the tenant. *)
  let test_raising_selector_charges_nothing () =
    let st = fresh () in
    let total = ref 0 in
    let quota =
      { Store.fits = (fun ~bytes:_ ~items:_ -> true);
        charge = (fun ~bytes ~items:_ -> total := !total + bytes) }
    in
    check_sr "seed" true (St.set st "k" "v" = Store.Stored);
    St.set_lru_selector st
      (Some (fun k -> if k = "k" then failwith "selector" else None));
    raises "selector" "set" (fun () -> St.set st ~quota "k" "value");
    raises "selector" "append" (fun () -> St.append st ~quota "k" "more");
    St.set_lru_selector st None;
    Alcotest.(check int) "nothing charged" 0 !total;
    St.check_invariants st

  let suite =
    [ Alcotest.test_case "set/get" `Quick test_set_get;
      Alcotest.test_case "cas monotonic" `Quick test_cas_monotonic;
      Alcotest.test_case "add/replace" `Quick test_add_replace;
      Alcotest.test_case "cas op" `Quick test_cas_op;
      Alcotest.test_case "append/prepend" `Quick test_append_prepend;
      Alcotest.test_case "delete" `Quick test_delete;
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "counter growth" `Quick
        test_counter_growth_reallocates;
      Alcotest.test_case "counter wrap" `Quick test_counter_wraps_u64;
      Alcotest.test_case "touch" `Quick test_touch;
      Alcotest.test_case "expiry" `Quick test_expiry_absolute_past;
      Alcotest.test_case "flush_all" `Quick test_flush_all;
      Alcotest.test_case "stats" `Quick test_stats_counters;
      Alcotest.test_case "large values" `Quick test_large_values;
      Alcotest.test_case "1000 keys" `Quick
        test_many_keys_no_collision_confusion;
      QCheck_alcotest.to_alcotest qcheck_model;
      Alcotest.test_case "raise releases stripe" `Quick
        test_raise_releases_stripe;
      Alcotest.test_case "raising charge frees item" `Quick
        test_raising_charge_frees_item;
      Alcotest.test_case "raising hook frees item" `Quick
        test_raising_evict_hook_frees_item;
      Alcotest.test_case "raising selector no charge" `Quick
        test_raising_selector_charges_nothing ]
end

module Private_env = struct
  let name = "private+slab"

  let fresh ?cfg:_ () =
    let arena = Mc_core.Private_memory.create ~limit:(64 lsl 20) in
    let slab = Mc_core.Slab.create ~arena ~mem_limit:(32 lsl 20) in
    (arena, slab)

  let live_bytes = Mc_core.Slab.used_bytes
end

module Shared_env = struct
  let name = "shared+ralloc"

  let fresh ?cfg:_ () =
    let reg = Shm.Region.create ~name:"store-test" ~size:(32 lsl 20) ~pkey:0 () in
    let heap = Ralloc.create reg in
    (Mc_core.Shared_memory.of_region reg, Mc_core.Ralloc_alloc.of_heap heap)

  let live_bytes a =
    let heap = Mc_core.Ralloc_alloc.heap a in
    Ralloc.flush_thread_cache heap;
    Ralloc.used_bytes heap
end

module Private_suite =
  Make_suite (Mc_core.Private_memory) (Mc_core.Slab) (Private_env)
module Shared_suite =
  Make_suite (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (Shared_env)

(* Eviction and concurrency get their own cases over the shared build. *)

module SSt = Shared_suite.St

let shared_store ~heap_mb ~cfg =
  let reg =
    Shm.Region.create ~name:"evict-test" ~size:(heap_mb lsl 20) ~pkey:0 ()
  in
  let heap = Ralloc.create reg in
  SSt.create
    ~mem:(Mc_core.Shared_memory.of_region reg)
    ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
    cfg

let test_eviction_under_pressure () =
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  let st = shared_store ~heap_mb:4 ~cfg in
  for i = 0 to 4_000 do
    match SSt.set st (Printf.sprintf "k%d" i) (String.make 900 'x') with
    | Store.Stored -> ()
    | r ->
      Alcotest.fail
        (Printf.sprintf "set %d failed unexpectedly (%s)" i
           (match r with
            | Store.No_memory -> "no memory"
            | _ -> "other"))
  done;
  let s = SSt.stats st in
  Alcotest.(check bool) "evictions happened" true
    (int_of_string (List.assoc "evictions" s) > 0);
  SSt.check_invariants st

let test_lru_eviction_order () =
  (* One LRU list: the re-fetched key must survive eviction. The test
     exercises LRU ordering, not bump rate-limiting, so bump on every
     hit. *)
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 1;
      stats_slots = 2; evict_batch = 2; bump_interval_s = 0 }
  in
  let st = shared_store ~heap_mb:1 ~cfg in
  ignore (SSt.set st "hot" (String.make 400 'h'));
  let i = ref 0 in
  let evicted_any = ref false in
  while not !evicted_any && !i < 3_000 do
    incr i;
    ignore (SSt.set st (Printf.sprintf "cold%d" !i) (String.make 400 'c'));
    (* keep "hot" at the head of the LRU *)
    ignore (SSt.get st "hot");
    let s = SSt.stats st in
    evicted_any := int_of_string (List.assoc "evictions" s) > 0
  done;
  Alcotest.(check bool) "eviction occurred" true !evicted_any;
  Alcotest.(check bool) "the hot key survived" true (SSt.get st "hot" <> None);
  SSt.check_invariants st

let test_zero_length_value () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:2 ~cfg in
  Alcotest.(check bool) "empty value stores" true
    (SSt.set st "empty" "" = Store.Stored);
  (match SSt.get st "empty" with
   | Some r -> Alcotest.(check string) "empty value reads back" "" r.Store.value
   | None -> Alcotest.fail "hit expected");
  Alcotest.(check bool) "append onto empty" true
    (SSt.append st "empty" "x" = Store.Stored);
  SSt.check_invariants st

let test_relative_expiry_in_future () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:2 ~cfg in
  (* a relative exptime (<= 30 days) lands in the future: still live *)
  ignore (SSt.set st ~exptime:3600 "soon" "v");
  Alcotest.(check bool) "not yet expired" true (SSt.get st "soon" <> None);
  (* touch can force an absolute past time, expiring it *)
  ignore (SSt.touch st "soon" 1_000_000_000);
  Alcotest.(check bool) "touch to the past expires" true
    (SSt.get st "soon" = None)

let test_lru_by_size_class_mode () =
  (* the baseline's slab-class LRU selection: different-size items land
     on different lists; all operations remain correct *)
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 8; lru_count = 8;
      stats_slots = 2; lru_by_size_class = true }
  in
  let st = shared_store ~heap_mb:8 ~cfg in
  for i = 0 to 99 do
    ignore (SSt.set st (Printf.sprintf "small%d" i) (String.make 50 's'));
    ignore (SSt.set st (Printf.sprintf "large%d" i) (String.make 3000 'l'))
  done;
  for i = 0 to 99 do
    assert (SSt.get st (Printf.sprintf "small%d" i) <> None);
    assert (SSt.get st (Printf.sprintf "large%d" i) <> None)
  done;
  Alcotest.(check int) "all items live" 200 (SSt.curr_items st);
  SSt.check_invariants st

(* The baseline's slab build picks an item's list by its size class,
   and a value of the codecs' largest size (1 MiB) makes an item past
   the largest chunk: a big allocation with no class. It must still
   land on a list, with no exception raised while the stripe is held. *)
let test_item_past_largest_chunk () =
  let module PSt = Private_suite.St in
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 8; lru_count = 8;
      stats_slots = 2; lru_by_size_class = true }
  in
  let mem, alloc = Private_env.fresh () in
  let st = PSt.create ~mem ~alloc cfg in
  let big = String.make Mc_protocol.Types.max_data_bytes 'b' in
  Alcotest.(check bool) "stored" true (PSt.set st "big" big = Store.Stored);
  PSt.check_invariants st;
  (match PSt.get st "big" with
   | Some r -> Alcotest.(check bool) "value intact" true (r.Store.value = big)
   | None -> Alcotest.fail "hit expected");
  Alcotest.(check bool) "deleted" true (PSt.delete st "big");
  PSt.check_invariants st

let test_single_stats_lock_mode_functional () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2; single_stats_lock = true }
  in
  let st = shared_store ~heap_mb:2 ~cfg in
  ignore (SSt.set st "a" "1");
  ignore (SSt.get st "a");
  ignore (SSt.get st "b");
  let stats = SSt.stats st in
  Alcotest.(check string) "hits under one lock" "1"
    (List.assoc "get_hits" stats);
  Alcotest.(check string) "misses under one lock" "1"
    (List.assoc "get_misses" stats);
  SSt.check_invariants st

let test_get_bumps_protect_from_eviction_pressure () =
  (* total_items only ever grows; evictions are counted separately *)
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:1 ~cfg in
  for i = 0 to 1_500 do
    ignore (SSt.set st (Printf.sprintf "k%d" i) (String.make 500 'x'))
  done;
  let stats = SSt.stats st in
  let total = int_of_string (List.assoc "total_items" stats) in
  let curr = int_of_string (List.assoc "curr_items" stats) in
  let evicted = int_of_string (List.assoc "evictions" stats) in
  Alcotest.(check int) "total = 1501 stores" 1501 total;
  Alcotest.(check bool) "eviction kept curr below total" true (curr < total);
  Alcotest.(check bool) "books balance" true (curr + evicted = total);
  SSt.check_invariants st

let test_fold_keys_enumerates_everything () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:4 ~cfg in
  for i = 0 to 49 do
    ignore (SSt.set st (Printf.sprintf "k%d" i) (String.make (i + 1) 'v'))
  done;
  let seen = SSt.fold_keys st (fun acc key ~nbytes ~exptime:_ ->
    (key, nbytes) :: acc) [] in
  Alcotest.(check int) "all keys enumerated" 50 (List.length seen);
  Alcotest.(check (option int)) "sizes reported" (Some 8)
    (List.assoc_opt "k7" seen);
  SSt.check_invariants st

let test_reap_expired_collects_proactively () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:4 ~cfg in
  for i = 0 to 19 do
    (* absolute past expiry: dead on arrival, but still occupying
       memory until something notices *)
    ignore (SSt.set st ~exptime:1_000_000_000 (Printf.sprintf "dead%d" i) "x");
    ignore (SSt.set st (Printf.sprintf "live%d" i) "y")
  done;
  Alcotest.(check int) "all 40 still linked" 40 (SSt.curr_items st);
  let reaped = SSt.reap_expired st in
  Alcotest.(check int) "reaper collected the dead" 20 reaped;
  Alcotest.(check int) "the living remain" 20 (SSt.curr_items st);
  for i = 0 to 19 do
    assert (SSt.get st (Printf.sprintf "live%d" i) <> None)
  done;
  Alcotest.(check int) "second pass finds nothing" 0 (SSt.reap_expired st);
  SSt.check_invariants st

let test_resize_doubles_and_preserves () =
  let cfg =
    { Store.default_config with hashpower = 4; lock_count = 8; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:8 ~cfg in
  for i = 0 to 199 do
    ignore (SSt.set st (Printf.sprintf "k%d" i) (string_of_int i))
  done;
  Alcotest.(check bool) "load factor high before" true
    (SSt.load_factor st > 10.0);
  Alcotest.(check bool) "resize succeeds" true (SSt.resize st);
  Alcotest.(check int) "hashpower doubled" 5
    (SSt.config st).Store.hashpower;
  for i = 0 to 199 do
    (match SSt.get st (Printf.sprintf "k%d" i) with
     | Some r -> Alcotest.(check string) "value" (string_of_int i) r.Store.value
     | None -> Alcotest.fail "key lost in resize")
  done;
  SSt.check_invariants st

let test_maybe_resize_tracks_load_factor () =
  let cfg =
    { Store.default_config with hashpower = 4; lock_count = 8; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:8 ~cfg in
  Alcotest.(check bool) "no resize while sparse" false (SSt.maybe_resize st);
  for i = 0 to 499 do
    ignore (SSt.set st (Printf.sprintf "k%d" i) "v")
  done;
  let grew = ref 0 in
  while SSt.maybe_resize st do
    Stdlib.incr grew
  done;
  Alcotest.(check bool) "grew several times" true (!grew >= 3);
  Alcotest.(check bool) "load factor now reasonable" true
    (SSt.load_factor st <= 1.5);
  for i = 0 to 499 do
    if SSt.get st (Printf.sprintf "k%d" i) = None then
      Alcotest.fail "key lost across repeated resizes"
  done;
  SSt.check_invariants st

let test_resize_under_concurrent_ops () =
  let cfg =
    { Store.default_config with hashpower = 5; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  let st = shared_store ~heap_mb:16 ~cfg in
  let stop = Atomic.make false in
  let workers =
    List.init 3 (fun t ->
      Thread.create
        (fun () ->
          let rng = Random.State.make [| t |] in
          let i = ref 0 in
          while not (Atomic.get stop) do
            Stdlib.incr i;
            let k = Printf.sprintf "t%d-%d" t (Random.State.int rng 500) in
            if Random.State.bool rng then ignore (SSt.set st k k)
            else ignore (SSt.get st k)
          done)
        ())
  in
  let resizes = ref 0 in
  for _ = 1 to 4 do
    Thread.yield ();
    if SSt.resize st then Stdlib.incr resizes
  done;
  Atomic.set stop true;
  List.iter Thread.join workers;
  Alcotest.(check int) "all resizes applied" 4 !resizes;
  SSt.check_invariants st

let test_concurrent_threads_no_corruption () =
  let cfg =
    { Store.default_config with hashpower = 10; lock_count = 64; lru_count = 8;
      stats_slots = 8 }
  in
  let st = shared_store ~heap_mb:16 ~cfg in
  let threads =
    List.init 4 (fun t ->
      Thread.create
        (fun () ->
          let rng = Random.State.make [| t |] in
          for i = 0 to 2_000 do
            let k = Printf.sprintf "k%d" (Random.State.int rng 200) in
            match Random.State.int rng 5 with
            | 0 -> ignore (SSt.set st k (Printf.sprintf "t%d-%d" t i))
            | 1 | 2 -> ignore (SSt.get st k)
            | 3 -> ignore (SSt.delete st k)
            | _ -> ignore (SSt.incr st k 1L)
          done)
        ())
  in
  List.iter Thread.join threads;
  SSt.check_invariants st

(* incr/decr must not clobber the item's metadata when the new value
   no longer fits the old block and the counter is re-stored. *)
let test_incr_preserves_flags_and_exptime () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  let st = shared_store ~heap_mb:2 ~cfg in
  ignore (SSt.set st ~flags:7 ~exptime:3600 "n" "9");
  let exptime_of key =
    SSt.fold_keys st
      (fun acc k ~nbytes:_ ~exptime -> if k = key then Some exptime else acc)
      None
  in
  let exp_before = Option.get (exptime_of "n") in
  Alcotest.(check bool) "absolute expiry recorded" true (exp_before > 3600);
  (* growing 1 digit -> 20 digits overflows the block and forces the
     re-store path *)
  (match SSt.incr st "n" (Int64.neg 616L) with
   | Store.Counter _ -> ()
   | _ -> Alcotest.fail "counter expected");
  (match SSt.get st "n" with
   | Some r ->
     Alcotest.(check int) "flags survive counter re-store" 7 r.Store.flags;
     Alcotest.(check int) "value is 20 digits" 20 (String.length r.Store.value)
   | None -> Alcotest.fail "hit expected");
  Alcotest.(check int) "exptime survives counter re-store" exp_before
    (Option.get (exptime_of "n"));
  SSt.check_invariants st

(* Seeded-VM races: the same workload replayed under many perturbed
   schedules, with heap poisoning armed so any use-after-free in the
   eviction or counter paths faults instead of silently reading
   recycled memory. *)

module VSt = Store.Make (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (Vm.Sync)

let run_seeded_vm ~seed ~heap_bytes ~cfg body =
  let vm = Vm.create ~sched_seed:seed ~preempt_jitter:40 () in
  let reg =
    Shm.Region.create ~name:"vm-race-test" ~size:heap_bytes ~pkey:0 ()
  in
  let heap = Ralloc.create reg in
  Ralloc.set_poisoning heap true;
  Fun.protect
    ~finally:(fun () -> Ralloc.set_poisoning heap false)
    (fun () ->
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let st =
             VSt.create
               ~mem:(Mc_core.Shared_memory.of_region reg)
               ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
               cfg
           in
           body st;
           VSt.check_invariants st));
      Vm.run vm)

let test_seeded_eviction_vs_set () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2; evict_batch = 2 }
  in
  (* distinct 900-byte values against a 384 KiB region: the single
     item size class holds ~63 items, so the writers race eviction
     throughout *)
  let total_evictions = ref 0 in
  for seed = 0 to 9 do
    run_seeded_vm ~seed ~heap_bytes:(384 lsl 10) ~cfg (fun st ->
      let writers =
        List.init 3 (fun t ->
          Vm.Sync.spawn ~name:(Printf.sprintf "w%d" t) (fun () ->
            for i = 0 to 149 do
              let k = Printf.sprintf "t%d-%d" t i in
              (match i mod 5 with
               | 3 -> ignore (VSt.get st (Printf.sprintf "t%d-%d" t (i - 1)))
               | 4 -> ignore (VSt.delete st (Printf.sprintf "t%d-%d" t (i - 2)))
               | _ -> ignore (VSt.set st k (String.make 900 'x')));
              Vm.Sync.advance 50
            done))
      in
      List.iter Vm.Sync.join writers;
      let s = VSt.stats st in
      total_evictions :=
        !total_evictions + int_of_string (List.assoc "evictions" s))
  done;
  Alcotest.(check bool) "sweep exercised eviction" true (!total_evictions > 0)

let test_seeded_incr_overflow () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 2;
      stats_slots = 2 }
  in
  for seed = 0 to 9 do
    run_seeded_vm ~seed ~heap_bytes:(2 lsl 20) ~cfg (fun st ->
      (* 2^64 - 6: a few concurrent increments wrap the counter *)
      ignore (VSt.set st "n" "18446744073709551610");
      let workers =
        List.init 3 (fun t ->
          Vm.Sync.spawn ~name:(Printf.sprintf "i%d" t) (fun () ->
            for _ = 1 to 4 do
              (match VSt.incr st "n" 2L with
               | Store.Counter _ -> ()
               | _ -> Alcotest.fail "counter expected");
              Vm.Sync.advance 30
            done))
      in
      List.iter Vm.Sync.join workers;
      (* (2^64 - 6 + 24) mod 2^64 = 18, whatever the interleaving *)
      (match VSt.get st "n" with
       | Some r -> Alcotest.(check string) "wrapped total" "18" r.Store.value
       | None -> Alcotest.fail "counter vanished"))
  done

(* ---- Seqlock read path and the int64 correctness sweep ------------------ *)

(* A CAS source past 2^62 exercises the bits a round-trip through the
   native 63-bit OCaml int silently drops. Injected by detaching (so
   the persisted source is authoritative), rewriting the control word
   raw, and attaching — the store must carry the full unsigned word
   end-to-end: issue, report via get, match via cas, survive
   check_invariants' monotonicity walk. *)
let test_cas_above_two_pow_62 () =
  let cfg =
    { Store.default_config with hashpower = 8; lock_count = 16; lru_count = 4;
      stats_slots = 4 }
  in
  let reg =
    Shm.Region.create ~name:"cas-top-bit" ~size:(4 lsl 20) ~pkey:0 ()
  in
  let heap = Ralloc.create reg in
  let mem = Mc_core.Shared_memory.of_region reg in
  let alloc = Mc_core.Ralloc_alloc.of_heap heap in
  let st = SSt.create ~mem ~alloc cfg in
  let ctrl = SSt.ctrl_off st in
  SSt.detach st;
  let big = Int64.add Int64.min_int 5L (* 2^63 + 5 as unsigned *) in
  Shm.Region.write_i64_raw reg (ctrl + Store.Layout.ctl_cas) big;
  let st = SSt.attach ~mem ~alloc cfg ~ctrl in
  Alcotest.(check bool) "stored" true (SSt.set st "k" "v" = Store.Stored);
  (match SSt.get st "k" with
   | None -> Alcotest.fail "hit expected"
   | Some r ->
     Alcotest.(check int64) "get reports all 64 bits" big r.Store.cas;
     Alcotest.(check bool) "cas matches the full unique" true
       (SSt.cas st ~cas:r.Store.cas "k" "v2" = Store.Stored);
     Alcotest.(check bool) "stale full-width unique rejected" true
       (SSt.cas st ~cas:big "k" "v3" = Store.Exists));
  (* More uniques issued above 2^63 stay unsigned-ordered. *)
  ignore (SSt.set st "k2" "w");
  let c2 = (Option.get (SSt.get st "k2")).Store.cas in
  Alcotest.(check bool) "uniques keep growing unsigned" true
    (Int64.unsigned_compare c2 big > 0);
  SSt.check_invariants st;
  (* And a detach/attach round-trip preserves the high source. *)
  SSt.detach st;
  let st = SSt.attach ~mem ~alloc cfg ~ctrl in
  ignore (SSt.set st "k3" "x");
  let c3 = (Option.get (SSt.get st "k3")).Store.cas in
  Alcotest.(check bool) "source survives detach/attach" true
    (Int64.unsigned_compare c3 c2 > 0);
  SSt.check_invariants st

(* Counter operand bounds at the store layer: 2^64-1 is a legal stored
   value (wraps on arithmetic); anything one digit longer must answer
   Non_numeric, not wrap modulo 2^64 into a quietly wrong counter. *)
let test_counter_value_bounds () =
  let st = shared_store ~heap_mb:4 ~cfg:Shared_suite.small_cfg in
  ignore (SSt.set st "max" "18446744073709551615");
  (match SSt.incr st "max" 1L with
   | Store.Counter v -> Alcotest.(check int64) "2^64-1 + 1 wraps" 0L v
   | _ -> Alcotest.fail "boundary value must stay numeric");
  ignore (SSt.set st "over" "18446744073709551616");
  (match SSt.incr st "over" 1L with
   | Store.Non_numeric -> ()
   | Store.Counter v ->
     Alcotest.failf "2^64 parsed as a counter (wrapped to %Lu)" v
   | _ -> Alcotest.fail "unexpected result");
  ignore (SSt.set st "over20" "99999999999999999999");
  (match SSt.incr st "over20" 1L with
   | Store.Non_numeric -> ()
   | Store.Counter v ->
     Alcotest.failf "20-digit overflow parsed as a counter (%Lu)" v
   | _ -> Alcotest.fail "unexpected result");
  SSt.check_invariants st

(* memcached expires negative TTLs immediately. Under the virtual
   clock [now] starts near 0, so the old "absolute time in the past"
   encoding could not represent them — the sentinel must survive
   real_exptime and both read paths must honour it. *)
let test_negative_exptime_born_dead () =
  let st = shared_store ~heap_mb:4 ~cfg:Shared_suite.small_cfg in
  Alcotest.(check bool) "stored" true
    (SSt.set st ~exptime:(-1) "dead" "v" = Store.Stored);
  Alcotest.(check bool) "born dead" true (SSt.get st "dead" = None);
  Alcotest.(check bool) "add over the corpse" true
    (SSt.add st "dead" "w" = Store.Stored);
  (match SSt.get st "dead" with
   | Some r -> Alcotest.(check string) "replacement lives" "w" r.Store.value
   | None -> Alcotest.fail "replacement must be readable");
  SSt.check_invariants st

(* The optimistic path retires reads without the stripe and reports
   itself; a reader inside a stripe group must take the locked path
   (its snapshot could deadlock against its own group). *)
let test_optimistic_path_counts () =
  let module C = Telemetry.Counters in
  let st = shared_store ~heap_mb:4 ~cfg:Shared_suite.small_cfg in
  ignore (SSt.set st "k" "v");
  let h0 = C.read C.Id.opt_hits in
  for _ = 1 to 10 do
    match SSt.get st "k" with
    | Some r -> Alcotest.(check string) "value" "v" r.Store.value
    | None -> Alcotest.fail "hit expected"
  done;
  Alcotest.(check bool) "gets retire optimistically" true
    (C.read C.Id.opt_hits - h0 >= 10);
  let h1 = C.read C.Id.opt_hits in
  SSt.with_stripes st ~stripes:[ SSt.stripe_of st "k" ] (fun () ->
    match SSt.get st "k" with
    | Some _ -> ()
    | None -> Alcotest.fail "hit expected under group");
  Alcotest.(check int) "held stripe routes to the locked path" h1
    (C.read C.Id.opt_hits)

(* Racing flush_all vs optimistic gets under seeded schedules: once
   flush_all has returned, no get that starts afterwards may return an
   item the watermark killed — the seqlock snapshot must re-read the
   watermark after validation, not before. *)
let test_seeded_flush_vs_optimistic_get () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 2; lru_count = 2;
      stats_slots = 2 }
  in
  for seed = 0 to 19 do
    run_seeded_vm ~seed ~heap_bytes:(1 lsl 20) ~cfg (fun st ->
      for i = 0 to 19 do
        ignore (VSt.set st (Printf.sprintf "pre-%d" i) "doomed")
      done;
      let flushed = ref false in
      let flusher =
        Vm.Sync.spawn ~name:"flusher" (fun () ->
          Vm.Sync.advance (100 + (seed * 37));
          VSt.flush_all st;
          flushed := true)
      in
      let readers =
        List.init 3 (fun t ->
          Vm.Sync.spawn ~name:(Printf.sprintf "g%d" t) (fun () ->
            for i = 0 to 39 do
              (* Cooperative fibers: the flag read and the get are not
                 separated by a schedule point we don't control — if
                 the flush was complete when this get began, a hit is
                 a correctness bug. *)
              let flush_done = !flushed in
              (match VSt.get st (Printf.sprintf "pre-%d" ((i + t) mod 20)) with
               | Some _ when flush_done ->
                 Alcotest.fail "optimistic get returned a flushed item"
               | _ -> ());
              Vm.Sync.advance 25
            done))
      in
      List.iter Vm.Sync.join (flusher :: readers);
      (match VSt.get st "pre-3" with
       | Some _ -> Alcotest.fail "flushed item visible at quiescence"
       | None -> ()))
  done

(* One hot key hammered by set/delete (plus eviction pressure from
   filler writers) against concurrent optimistic readers: every hit
   must be an untorn (value, flags, length) triple — the value encodes
   the flags word, so a snapshot stitched from two writes mismatches.
   Heap poisoning is armed by [run_seeded_vm], so an optimistic reader
   touching recycled memory faults (and must retry) rather than
   silently reading garbage. The heap is sized so the filler's 900 B
   items get a superblock of their own class after the store metadata
   and the hot key's classes take theirs (eight superblocks in all):
   its sets store, its ~63-block class fills, and the store evicts.
   On 512 KiB the hot-key writers evict every filler item into their
   own thread caches and the filler's later sets are all refused. *)
let test_seeded_optimistic_torn_triple () =
  let cfg =
    { Store.default_config with hashpower = 6; lock_count = 2; lru_count = 2;
      stats_slots = 2; evict_batch = 2 }
  in
  for seed = 0 to 19 do
    run_seeded_vm ~seed ~heap_bytes:(576 lsl 10) ~cfg (fun st ->
      let tag_len tag = 40 + (tag mod 50) in
      let writers =
        List.init 2 (fun t ->
          Vm.Sync.spawn ~name:(Printf.sprintf "w%d" t) (fun () ->
            for i = 0 to 59 do
              let tag = (t * 100) + (i mod 7) in
              (match i mod 9 with
               | 8 -> ignore (VSt.delete st "hot")
               | _ ->
                 ignore
                   (VSt.set st ~flags:tag "hot"
                      (Printf.sprintf "%03d%s" tag
                         (String.make (tag_len tag) 'x'))));
              Vm.Sync.advance 30
            done))
      in
      let stored = ref 0 in
      let filler =
        Vm.Sync.spawn ~name:"filler" (fun () ->
          for i = 0 to 199 do
            if VSt.set st (Printf.sprintf "f%d" i) (String.make 900 'f')
               = Store.Stored
            then incr stored;
            Vm.Sync.advance 40
          done)
      in
      let readers =
        List.init 2 (fun t ->
          Vm.Sync.spawn ~name:(Printf.sprintf "r%d" t) (fun () ->
            for _ = 0 to 79 do
              (match VSt.get st "hot" with
               | None -> ()
               | Some r ->
                 let tag = int_of_string (String.sub r.Store.value 0 3) in
                 Alcotest.(check int) "flags match the value's tag" tag
                   r.Store.flags;
                 Alcotest.(check int) "length matches the value's tag"
                   (3 + tag_len tag)
                   (String.length r.Store.value));
              Vm.Sync.advance 20
            done))
      in
      List.iter Vm.Sync.join ((writers @ readers) @ [ filler ]);
      Alcotest.(check bool) "the filler's sets store" true (!stored > 0);
      Alcotest.(check bool) "the store evicts" true
        (int_of_string (List.assoc "evictions" (VSt.stats st)) > 0))
  done

(* ---- Replace in place ------------------------------------------------
   An overwrite of an item that took its LRU place within the move
   interval takes over that place; one past the interval goes to the
   head. One list and one-item eviction passes make the cold end
   observable: [evict st n] reclaims exactly [n] items from it. *)

let replace_cfg =
  { Store.default_config with hashpower = 6; lock_count = 4; lru_count = 1;
    stats_slots = 2; evict_batch = 1 }

let in_vm body =
  run_seeded_vm ~seed:0 ~heap_bytes:(1 lsl 20) ~cfg:replace_cfg body

let past_interval () =
  Vm.Sync.sleep_ns ((replace_cfg.Store.bump_interval_s + 1) * 1_000_000_000)

let evict st n =
  for _ = 1 to n do
    Alcotest.(check int) "one item evicted" 1 (VSt.evict_some st ~hint:0)
  done

let live st keys = List.filter (fun k -> VSt.get st k <> None) keys

let set_all st keys = List.iter (fun k -> ignore (VSt.set st k "v1")) keys

let test_overwrite_keeps_lru_place () =
  in_vm (fun st ->
    set_all st [ "a"; "b"; "c" ];
    Alcotest.(check bool) "overwrite" true (VSt.set st "a" "v2" = Store.Stored);
    Alcotest.(check int) "replace is net zero" 3 (VSt.curr_items st);
    evict st 1;
    Alcotest.(check (list string)) "the cold overwritten item goes first"
      [ "b"; "c" ] (live st [ "a"; "b"; "c" ]))

let test_overwrite_past_interval_moves () =
  in_vm (fun st ->
    set_all st [ "a"; "b"; "c" ];
    past_interval ();
    ignore (VSt.set st "a" "v2");
    evict st 1;
    Alcotest.(check (list string)) "the overwrite moved to the head"
      [ "a"; "c" ] (live st [ "a"; "b"; "c" ]);
    match VSt.get st "a" with
    | Some r -> Alcotest.(check string) "new value" "v2" r.Store.value
    | None -> Alcotest.fail "hit expected")

let test_touch_follows_move_rule () =
  in_vm (fun st ->
    set_all st [ "a"; "b" ];
    Alcotest.(check bool) "touch" true (VSt.touch st "a" 0);
    evict st 1;
    Alcotest.(check (list string)) "a recent touch does not move" [ "b" ]
      (live st [ "a"; "b" ]));
  (* Past the interval a touch moves the item and restamps it, so a get
     right after it leaves the item where the touch put it. *)
  in_vm (fun st ->
    set_all st [ "a"; "b" ];
    past_interval ();
    ignore (VSt.touch st "a" 0);
    set_all st [ "c" ];
    ignore (VSt.get st "a");
    evict st 2;
    Alcotest.(check (list string)) "the get did not move a again" [ "c" ]
      (live st [ "a"; "b"; "c" ]))

let test_overwrite_and_flush_all () =
  in_vm (fun st ->
    set_all st [ "x"; "y" ];
    ignore (VSt.set st "x" "v2");
    VSt.flush_all st;
    ignore (VSt.set st "y" "v3");
    set_all st [ "z" ];
    Alcotest.(check (list string)) "the heir dies with the flush" [ "y"; "z" ]
      (live st [ "x"; "y"; "z" ]);
    match VSt.get st "y" with
    | Some r -> Alcotest.(check string) "set after flush" "v3" r.Store.value
    | None -> Alcotest.fail "hit expected")

(* ---- Get copy costs ----------------------------------------------------
   One thread in an unperturbed Vm, so the virtual clock charges
   exactly the cost model. An optimistic hit copies the value once,
   into the caller's buffer; a get pays [malloc_out] once, whichever
   path serves it. *)

let in_quiet_vm body =
  let vm = Vm.create () in
  let reg = Shm.Region.create ~name:"quiet-vm" ~size:(1 lsl 20) ~pkey:0 () in
  let heap = Ralloc.create reg in
  let result = ref None in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
       result :=
         Some
           (body
              (VSt.create
                 ~mem:(Mc_core.Shared_memory.of_region reg)
                 ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
                 replace_cfg))));
  Vm.run ~raise_on_failure:true vm;
  Option.get !result

(* The virtual time one get of [key] takes, and how many of the
   counter [id]'s events it recorded. *)
let timed_get st key id =
  let module C = Telemetry.Counters in
  let c0 = C.read id and t0 = Vm.Sync.now_ns () in
  let hit = VSt.get st key <> None in
  (hit, Vm.Sync.now_ns () - t0, C.read id - c0)

let copy_delta = Platform.Cost_model.(memcpy_cost 5120 - memcpy_cost 128)

let check_path name (hit, _, n) =
  Alcotest.(check bool) "hit" true hit;
  Alcotest.(check int) name 1 n

let ns (_, t, _) = t

let test_optimistic_hit_copies_once () =
  let small, large =
    in_quiet_vm (fun st ->
      let hit n =
        ignore (VSt.set st "k" (String.make n 'v'));
        timed_get st "k" Telemetry.Counters.Id.opt_hits
      in
      let small = hit 128 in
      (small, hit 5120))
  in
  check_path "an optimistic hit" small;
  check_path "an optimistic hit" large;
  Alcotest.(check int) "one copy of the difference" copy_delta
    (ns large - ns small)

let test_fallback_hit_pays_malloc_once () =
  let module CM = Platform.Cost_model in
  let malloc_out = CM.current.malloc_out in
  let small, large, dearer =
    Fun.protect ~finally:(fun () -> CM.current.malloc_out <- malloc_out)
    @@ fun () ->
    in_quiet_vm (fun st ->
      (* past the interval the snapshot sees an LRU bump due and hands
         the get to the locked path *)
      let fallback n =
        ignore (VSt.set st "k" (String.make n 'v'));
        past_interval ();
        timed_get st "k" Telemetry.Counters.Id.opt_fallbacks
      in
      let small = fallback 128 in
      let large = fallback 5120 in
      CM.current.malloc_out <- malloc_out + 1000;
      (small, large, fallback 5120))
  in
  List.iter (check_path "a fallback") [ small; large; dearer ];
  Alcotest.(check int) "the locked path's two copies, none before it"
    (2 * copy_delta) (ns large - ns small);
  Alcotest.(check int) "malloc_out charged once" 1000 (ns dearer - ns large)

(* ---- Allocation pricing -----------------------------------------------
   An item allocation is priced by the path Ralloc took: a pop from the
   thread's own cache costs [alloc_cache_pop], a refill from the shared
   lists (or a large block) [alloc_cost]. Each scenario runs twice in a
   quiet Vm, the second time with [alloc_small] 1000 ns dearer and
   [alloc_cache_pop] 10000 ns dearer, so how much dearer each set got
   says which of the two it paid. *)

let refill_mark = 1000

let pop_mark = 10_000

let priced_sets scenario =
  let module CM = Platform.Cost_model in
  let small = CM.current.alloc_small and pop = CM.current.alloc_cache_pop in
  let times () = in_quiet_vm scenario in
  let base = times () in
  let marked =
    Fun.protect
      ~finally:(fun () ->
        CM.current.alloc_small <- small;
        CM.current.alloc_cache_pop <- pop)
    @@ fun () ->
    CM.current.alloc_small <- small + refill_mark;
    CM.current.alloc_cache_pop <- pop + pop_mark;
    times ()
  in
  List.map2 (fun m b -> m - b) marked base

let set_ns st key n =
  let t0 = Vm.Sync.now_ns () in
  Alcotest.(check bool) "stored" true
    (VSt.set st key (String.make n 'v') = Store.Stored);
  Vm.Sync.now_ns () - t0

let test_fresh_thread_set_refills () =
  Alcotest.(check (list int)) "the first set refills" [ refill_mark ]
    (priced_sets (fun st -> [ set_ns st "k" 128 ]))

let test_set_after_free_pops_cache () =
  Alcotest.(check (list int)) "refill, then a pop of the freed block"
    [ refill_mark; pop_mark ]
    (priced_sets (fun st ->
       let first = set_ns st "k" 128 in
       Alcotest.(check bool) "deleted" true (VSt.delete st "k");
       [ first; set_ns st "k" 128 ]))

let test_large_set_on_warm_cache_pops () =
  let module CM = Platform.Cost_model in
  Alcotest.(check bool) "6 KiB would otherwise cost more than 128 B" true
    (CM.alloc_cost 6144 > CM.alloc_cost 128);
  Alcotest.(check (list int)) "6 KiB and 128 B both pop the cache"
    [ pop_mark; pop_mark ]
    (priced_sets (fun st ->
       ignore (set_ns st "warm-small" 128);
       ignore (set_ns st "warm-large" 6144);
       [ set_ns st "small" 128; set_ns st "large" 6144 ]))

let test_item_usable_size_is_class_block () =
  let reg = Shm.Region.create ~name:"usable" ~size:(1 lsl 20) ~pkey:0 () in
  let alloc = Mc_core.Ralloc_alloc.of_heap (Ralloc.create reg) in
  let item = Store.Layout.header_size + String.length "k" + 119 in
  Alcotest.(check int) "a 200 B item" 200 item;
  let off, _ = Mc_core.Ralloc_alloc.alloc alloc item in
  Alcotest.(check int) "its usable size is its class's block"
    Ralloc.size_classes.(Ralloc.class_of_size item)
    (Mc_core.Ralloc_alloc.usable_size alloc off);
  Alcotest.(check int) "which is 224 B" 224
    (Mc_core.Ralloc_alloc.usable_size alloc off)

(* ---- Eviction passes --------------------------------------------------
   One list and eight-item passes: a pass takes the list's eight
   coldest items off its tail in one cut, or one by one when a tenant
   predicate spares some of them and they are no longer a run. *)

let pass_cfg = { replace_cfg with evict_batch = 8 }

let stat st k = int_of_string (List.assoc k (VSt.stats st))

let numbered prefix n = List.init n (fun i -> Printf.sprintf "%s%02d" prefix i)

let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)

(* Items on list 0, counted by walking it head to tail. *)
let listed st =
  match List.assoc_opt "items:0:number" (VSt.stats_items st) with
  | Some n -> int_of_string n
  | None -> 0

let test_pass_cuts_cold_end () =
  run_seeded_vm ~seed:0 ~heap_bytes:(1 lsl 20) ~cfg:pass_cfg (fun st ->
    let ks = numbered "k" 20 in
    set_all st ks;
    Alcotest.(check int) "a full pass" 8 (VSt.evict_some st ~hint:0);
    Alcotest.(check (list string)) "the eight coldest went" (drop 8 ks)
      (live st ks);
    Alcotest.(check int) "curr_items" 12 (VSt.curr_items st);
    Alcotest.(check int) "evictions" 8 (stat st "evictions");
    Alcotest.(check int) "head to tail" 12 (listed st);
    VSt.check_invariants st;
    (* The next pass starts from the new tail and walks its prev links:
       the list reads the same from both ends. *)
    Alcotest.(check int) "the next pass" 8 (VSt.evict_some st ~hint:0);
    Alcotest.(check (list string)) "the next eight coldest went" (drop 16 ks)
      (live st ks);
    Alcotest.(check int) "a short pass empties the list" 4
      (VSt.evict_some st ~hint:0);
    Alcotest.(check int) "nothing listed" 0 (listed st);
    Alcotest.(check int) "curr_items after" 0 (VSt.curr_items st);
    Alcotest.(check int) "evictions after" 20 (stat st "evictions");
    VSt.check_invariants st;
    set_all st [ "fresh" ];
    Alcotest.(check int) "the emptied list takes new items" 1 (listed st))

let test_pass_spares_other_tenants () =
  run_seeded_vm ~seed:0 ~heap_bytes:(1 lsl 20) ~cfg:pass_cfg (fun st ->
    (* a00 b00 a01 b01 ... from the tail *)
    let a = numbered "a" 10 and b = numbered "b" 10 in
    List.iter2 (fun x y -> set_all st [ x; y ]) a b;
    Alcotest.(check int) "the a-keys among the eight coldest" 4
      (VSt.evict_some_matching st ~lru:0
         ~pred:(String.starts_with ~prefix:"a"));
    Alcotest.(check (list string)) "the b-keys stay" (b @ drop 4 a)
      (live st (b @ a));
    Alcotest.(check int) "curr_items" 16 (VSt.curr_items st);
    Alcotest.(check int) "evictions" 4 (stat st "evictions");
    VSt.check_invariants st;
    (* what is left is still in order: b00..b03 a04 b04 a05 b05 *)
    Alcotest.(check int) "an unfiltered pass" 8 (VSt.evict_some st ~hint:0);
    Alcotest.(check (list string)) "the next eight coldest went"
      (drop 6 b @ drop 6 a) (live st (b @ a));
    VSt.check_invariants st)

(* A reap limit below the list count still looks at every list's cold
   end: with 64 lists, [~limit:10] walks one item of each. *)
let test_reap_small_limit () =
  let cfg = { Store.default_config with stats_slots = 2 } in
  run_seeded_vm ~seed:0 ~heap_bytes:(4 lsl 20) ~cfg (fun st ->
    List.iter
      (fun k -> ignore (VSt.set st ~exptime:(-1) k "dead"))
      (numbered "d" 200);
    let lists = List.length (VSt.stats_items st) / 2 in
    Alcotest.(check int) "one reaped per occupied list" lists
      (VSt.reap_expired ~limit:10 st);
    Alcotest.(check int) "expired" lists (stat st "expired_unfetched");
    Alcotest.(check int) "curr_items" (200 - lists) (VSt.curr_items st);
    ignore (VSt.reap_expired st);
    Alcotest.(check int) "the default limit reaps the rest" 0
      (VSt.curr_items st))

(* Stripe pins are keyed by store id: two attaches of one heap hold the
   same stripe index independently. *)
let test_two_attaches_do_not_alias () =
  let module C = Telemetry.Counters in
  let reg =
    Shm.Region.create ~name:"attach-twice" ~size:(4 lsl 20) ~pkey:0 ()
  in
  let mem = Mc_core.Shared_memory.of_region reg in
  let alloc = Mc_core.Ralloc_alloc.of_heap (Ralloc.create reg) in
  let cfg = Shared_suite.small_cfg in
  let st1 = SSt.create ~mem ~alloc cfg in
  let st2 = SSt.attach ~mem ~alloc cfg ~ctrl:(SSt.ctrl_off st1) in
  ignore (SSt.set st1 "k" "v");
  let s = SSt.stripe_of st1 "k" in
  SSt.with_stripes st1 ~stripes:[ s ] (fun () ->
    SSt.with_stripes st2 ~stripes:[ s ] ignore;
    let tried () = C.read C.Id.opt_fallbacks + C.read C.Id.opt_retries in
    let t0 = tried () in
    (match SSt.get st1 "k" with
     | Some r -> Alcotest.(check string) "value" "v" r.Store.value
     | None -> Alcotest.fail "hit expected");
    Alcotest.(check int) "st1 still holds its stripe" t0 (tried ()))

let () =
  Alcotest.run "store"
    [ ("private+slab", Private_suite.suite);
      ("shared+ralloc", Shared_suite.suite);
      ( "eviction & concurrency",
        [ Alcotest.test_case "eviction under pressure" `Quick
            test_eviction_under_pressure;
          Alcotest.test_case "lru order respected" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "4-thread soup" `Slow
            test_concurrent_threads_no_corruption;
          Alcotest.test_case "incr preserves flags/exptime" `Quick
            test_incr_preserves_flags_and_exptime;
          Alcotest.test_case "seeded eviction vs set" `Quick
            test_seeded_eviction_vs_set;
          Alcotest.test_case "seeded incr overflow" `Quick
            test_seeded_incr_overflow;
          Alcotest.test_case "two attaches do not alias" `Quick
            test_two_attaches_do_not_alias ] );
      ( "replace in place",
        [ Alcotest.test_case "overwrite keeps its lru place" `Quick
            test_overwrite_keeps_lru_place;
          Alcotest.test_case "overwrite past the interval moves" `Quick
            test_overwrite_past_interval_moves;
          Alcotest.test_case "touch follows the move rule" `Quick
            test_touch_follows_move_rule;
          Alcotest.test_case "overwrite and flush_all" `Quick
            test_overwrite_and_flush_all ] );
      ( "eviction passes",
        [ Alcotest.test_case "a pass cuts the cold end" `Quick
            test_pass_cuts_cold_end;
          Alcotest.test_case "a pass spares other tenants" `Quick
            test_pass_spares_other_tenants;
          Alcotest.test_case "reap limit below the list count" `Quick
            test_reap_small_limit ] );
      ( "seqlock & int64",
        [ Alcotest.test_case "cas above 2^62" `Quick
            test_cas_above_two_pow_62;
          Alcotest.test_case "counter value bounds" `Quick
            test_counter_value_bounds;
          Alcotest.test_case "negative exptime" `Quick
            test_negative_exptime_born_dead;
          Alcotest.test_case "optimistic path counts" `Quick
            test_optimistic_path_counts;
          Alcotest.test_case "seeded flush vs optimistic get" `Quick
            test_seeded_flush_vs_optimistic_get;
          Alcotest.test_case "seeded torn-triple hammer" `Quick
            test_seeded_optimistic_torn_triple;
          Alcotest.test_case "optimistic hit copies once" `Quick
            test_optimistic_hit_copies_once;
          Alcotest.test_case "fallback hit pays malloc_out once" `Quick
            test_fallback_hit_pays_malloc_once ] );
      ( "allocation pricing",
        [ Alcotest.test_case "a fresh thread's first set refills" `Quick
            test_fresh_thread_set_refills;
          Alcotest.test_case "a set after a free pops the cache" `Quick
            test_set_after_free_pops_cache;
          Alcotest.test_case "6 KiB on a warm cache pops like 128 B" `Quick
            test_large_set_on_warm_cache_pops;
          Alcotest.test_case "an item's usable size is its class block"
            `Quick test_item_usable_size_is_class_block ] );
      ( "edge cases",
        [ Alcotest.test_case "zero-length value" `Quick test_zero_length_value;
          Alcotest.test_case "relative expiry" `Quick
            test_relative_expiry_in_future;
          Alcotest.test_case "lru by size class" `Quick
            test_lru_by_size_class_mode;
          Alcotest.test_case "item past the largest chunk" `Quick
            test_item_past_largest_chunk;
          Alcotest.test_case "single stats lock mode" `Quick
            test_single_stats_lock_mode_functional;
          Alcotest.test_case "eviction bookkeeping" `Quick
            test_get_bumps_protect_from_eviction_pressure ] );
      ( "admin",
        [ Alcotest.test_case "fold_keys" `Quick
            test_fold_keys_enumerates_everything;
          Alcotest.test_case "reap expired" `Quick
            test_reap_expired_collects_proactively ] );
      ( "resize",
        [ Alcotest.test_case "doubles and preserves" `Quick
            test_resize_doubles_and_preserves;
          Alcotest.test_case "maybe_resize tracks load" `Quick
            test_maybe_resize_tracks_load_factor;
          Alcotest.test_case "resize under concurrency" `Slow
            test_resize_under_concurrent_ops ] ) ]
