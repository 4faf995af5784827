(** YCSB workload generator: distribution properties, determinism,
    histogram math, and the runner harness. *)

module W = Ycsb.Workload
module H = Ycsb.Histogram

let test_rng_deterministic () =
  let a = Ycsb.Rng.create 7 and b = Ycsb.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Ycsb.Rng.next_i64 a)
      (Ycsb.Rng.next_i64 b)
  done

let test_rng_ranges () =
  let r = Ycsb.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Ycsb.Rng.next_int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "next_int out of range";
    let f = Ycsb.Rng.next_float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "next_float out of range"
  done

let test_zipfian_bounds_and_skew () =
  let n = 10_000 in
  let z = Ycsb.Zipfian.create n in
  let rng = Ycsb.Rng.create 99 in
  let counts = Array.make n 0 in
  let samples = 50_000 in
  for _ = 1 to samples do
    let v = Ycsb.Zipfian.next z rng in
    if v < 0 || v >= n then Alcotest.fail "zipfian out of range";
    counts.(v) <- counts.(v) + 1
  done;
  (* rank 0 is the most popular and gets roughly 1/zeta(n) of traffic *)
  let max_count = Array.fold_left max 0 counts in
  Alcotest.(check int) "rank 0 is the mode" counts.(0) max_count;
  let p0 = float_of_int counts.(0) /. float_of_int samples in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 share %.3f in [0.05, 0.20]" p0)
    true
    (p0 > 0.05 && p0 < 0.20);
  (* the head dominates: top 1% of keys get the majority of traffic *)
  let head = Array.sub counts 0 (n / 100) in
  let head_share =
    float_of_int (Array.fold_left ( + ) 0 head) /. float_of_int samples
  in
  Alcotest.(check bool)
    (Printf.sprintf "head share %.3f > 0.5" head_share)
    true (head_share > 0.5)

let test_scrambled_zipfian_spreads_hotset () =
  let n = 10_000 in
  let z = Ycsb.Zipfian.create n in
  let rng = Ycsb.Rng.create 5 in
  let seen_high = ref false in
  for _ = 1 to 2_000 do
    let v = Ycsb.Zipfian.next_scrambled z rng in
    if v < 0 || v >= n then Alcotest.fail "scrambled out of range";
    if v > n / 2 then seen_high := true
  done;
  Alcotest.(check bool) "hot keys land across the whole keyspace" true
    !seen_high

let test_workload_mix_ratio () =
  let w =
    W.make ~record_count:1000 ~operation_count:0 ~read_proportion:0.95
      ~field_length:16 ()
  in
  let rng = Ycsb.Rng.create w.W.seed in
  let choose = W.chooser w rng in
  let reads = ref 0 in
  let total = 20_000 in
  for _ = 1 to total do
    match W.next_op w rng choose with
    | W.Read _ -> incr reads
    | W.Update _ -> ()
  done;
  let share = float_of_int !reads /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "read share %.3f ~ 0.95" share)
    true
    (abs_float (share -. 0.95) < 0.01)

let test_workload_values_sized () =
  let w =
    W.make ~record_count:10 ~operation_count:0 ~read_proportion:0.0
      ~field_length:128 ()
  in
  for i = 0 to 9 do
    Alcotest.(check int) "value length" 128 (String.length (W.value_of w i))
  done;
  Alcotest.(check bool) "values differ by key" true
    (W.value_of w 1 <> W.value_of w 2);
  Alcotest.(check bool) "keys validate" true
    (Mc_protocol.Types.validate_key (W.key_of w 3))

let test_paper_workloads () =
  let w = W.paper ~small_value:true ~read_heavy:false ~operation_count:100 () in
  Alcotest.(check int) "scaled records" 400_000 w.W.record_count;
  Alcotest.(check int) "field length" 128 w.W.field_length;
  Alcotest.(check (float 0.001)) "write heavy" 0.5 w.W.read_proportion;
  let w5 = W.paper ~small_value:false ~read_heavy:true ~operation_count:100 () in
  Alcotest.(check int) "5KB records" 10_000 w5.W.record_count;
  Alcotest.(check int) "5KB field" 5120 w5.W.field_length;
  Alcotest.(check (float 0.001)) "read heavy" 0.95 w5.W.read_proportion

let test_histogram_percentiles () =
  let h = H.create () in
  for v = 1 to 1000 do
    H.record h v
  done;
  Alcotest.(check int) "count" 1000 (H.count h);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check int) "max" 1000 (H.max_value h);
  let p50 = H.percentile h 50.0 in
  let p99 = H.percentile h 99.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p50=%d within 5%%" p50)
    true
    (abs (p50 - 500) < 50);
  Alcotest.(check bool)
    (Printf.sprintf "p99=%d within 5%%" p99)
    true
    (abs (p99 - 990) < 50);
  Alcotest.(check bool) "p100 = max" true (H.percentile h 100.0 <= 1000);
  Alcotest.(check (float 10.0)) "mean" 500.5 (H.mean h)

let test_histogram_merge () =
  let a = H.create () and b = H.create () in
  H.record a 10;
  H.record b 1000;
  H.merge ~into:a b;
  Alcotest.(check int) "count" 2 (H.count a);
  Alcotest.(check int) "min" 10 (H.min_value a);
  Alcotest.(check int) "max" 1000 (H.max_value a)

let test_histogram_wide_range () =
  let h = H.create () in
  List.iter (fun v -> H.record h v) [ 1; 100; 10_000; 1_000_000; 100_000_000 ];
  Alcotest.(check int) "count" 5 (H.count h);
  (* bucketing error stays within ~3% *)
  let p100 = H.percentile h 100.0 in
  Alcotest.(check bool) "extreme value representable" true
    (p100 <= 100_000_000 && p100 > 96_000_000)

let test_runner_in_vm () =
  let module Run = Ycsb.Runner.Make (Vm.Sync) in
  let w =
    W.make ~record_count:500 ~operation_count:2_000 ~read_proportion:0.5
      ~field_length:32 ()
  in
  let table : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let lock = Mutex.create () in
  let db : Ycsb.Runner.db =
    { db_read =
        (fun k ->
          Vm.Sync.advance 500;
          Mutex.lock lock;
          let r = Hashtbl.mem table k in
          Mutex.unlock lock;
          r);
      db_update =
        (fun k v ->
          Vm.Sync.advance 800;
          Mutex.lock lock;
          Hashtbl.replace table k v;
          Mutex.unlock lock;
          true) }
  in
  let vm = Vm.create () in
  let res = ref None in
  ignore (Vm.spawn vm ~name:"main" (fun () ->
    Run.load w db;
    res := Some (Run.run ~threads:4 w ~db_for:(fun _ -> db))));
  Vm.run vm;
  let r = Option.get !res in
  Alcotest.(check int) "ops counted" 2_000 r.Ycsb.Runner.r_ops;
  Alcotest.(check int) "all reads hit a loaded store" 0
    r.Ycsb.Runner.r_misses;
  Alcotest.(check int) "latencies recorded per op" 2_000
    (H.count r.Ycsb.Runner.r_hist);
  Alcotest.(check bool) "throughput computed" true
    (Ycsb.Runner.throughput_ktps r > 0.0);
  Alcotest.(check bool) "read + update hists partition ops" true
    (H.count r.Ycsb.Runner.r_read_hist + H.count r.Ycsb.Runner.r_update_hist
     = 2_000)

(* Determinism regression: the whole pipeline — workload generation, VM
   scheduling, latency measurement — is seeded. Running the same seeded
   workload in two fresh VMs must produce byte-identical op streams (as
   observed by the db hooks, i.e. including thread interleaving) and
   identical histogram statistics. A regression here silently breaks
   every "same seed reproduces the run" claim the test suite relies on. *)

let hist_fingerprint h =
  Printf.sprintf "n=%d min=%d max=%d mean=%.6f p50=%d p90=%d p99=%d p999=%d"
    (H.count h) (H.min_value h) (H.max_value h) (H.mean h)
    (H.percentile h 50.0) (H.percentile h 90.0) (H.percentile h 99.0)
    (H.percentile h 99.9)

let run_seeded_ycsb ~sched_seed ~workload_seed =
  let module Run = Ycsb.Runner.Make (Vm.Sync) in
  let w =
    W.make ~seed:workload_seed ~record_count:300 ~operation_count:1_200
      ~read_proportion:0.6 ~field_length:24 ()
  in
  let table : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let lock = Mutex.create () in
  let trace = Buffer.create 4096 in
  let db : Ycsb.Runner.db =
    { db_read =
        (fun k ->
          Vm.Sync.advance 500;
          Mutex.lock lock;
          Buffer.add_string trace ("R " ^ k ^ "\n");
          let r = Hashtbl.mem table k in
          Mutex.unlock lock;
          r);
      db_update =
        (fun k v ->
          Vm.Sync.advance 800;
          Mutex.lock lock;
          Buffer.add_string trace
            (Printf.sprintf "U %s %d\n" k (String.length v));
          Hashtbl.replace table k v;
          Mutex.unlock lock;
          true) }
  in
  let vm = Vm.create ~sched_seed () in
  let res = ref None in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
         Run.load w db;
         res := Some (Run.run ~threads:4 w ~db_for:(fun _ -> db))));
  Vm.run vm;
  let r = Option.get !res in
  ( Buffer.contents trace,
    [ hist_fingerprint r.Ycsb.Runner.r_hist;
      hist_fingerprint r.Ycsb.Runner.r_read_hist;
      hist_fingerprint r.Ycsb.Runner.r_update_hist ],
    (r.Ycsb.Runner.r_ops, r.Ycsb.Runner.r_hits, r.Ycsb.Runner.r_misses),
    Vm.events_processed vm )

let test_determinism_same_seed () =
  let t1, h1, c1, e1 = run_seeded_ycsb ~sched_seed:4242 ~workload_seed:17 in
  let t2, h2, c2, e2 = run_seeded_ycsb ~sched_seed:4242 ~workload_seed:17 in
  Alcotest.(check int) "op stream bytes" (String.length t1) (String.length t2);
  Alcotest.(check bool) "op streams byte-identical" true (String.equal t1 t2);
  Alcotest.(check (list string)) "histogram stats identical" h1 h2;
  let ops1, hits1, miss1 = c1 and ops2, hits2, miss2 = c2 in
  Alcotest.(check int) "ops" ops1 ops2;
  Alcotest.(check int) "hits" hits1 hits2;
  Alcotest.(check int) "misses" miss1 miss2;
  Alcotest.(check int) "scheduler events" e1 e2

let test_determinism_seed_sensitivity () =
  (* Different workload seed must produce a different op stream — otherwise
     the "identical" assertions above would pass vacuously. *)
  let t1, _, _, _ = run_seeded_ycsb ~sched_seed:4242 ~workload_seed:17 in
  let t3, _, _, _ = run_seeded_ycsb ~sched_seed:4242 ~workload_seed:18 in
  Alcotest.(check bool) "different workload seed diverges" false
    (String.equal t1 t3);
  (* And a different scheduler seed reorders the interleaved stream. *)
  let t4, _, _, _ = run_seeded_ycsb ~sched_seed:4243 ~workload_seed:17 in
  Alcotest.(check bool) "different sched seed reorders stream" false
    (String.equal t1 t4)

(* Batch-plane determinism: the batched runner draws from exactly the
   same per-thread rng streams as the scalar one, so (a) two same-seed
   runs at any batch size are byte-identical, and (b) each thread's op
   stream — keys, order, update sizes — is byte-identical at every
   batch size. Only the execution grouping (and hence cross-thread
   interleaving) may move. *)

let run_seeded_ycsb_batched ~sched_seed ~workload_seed ~batch =
  let module Run = Ycsb.Runner.Make (Vm.Sync) in
  let w =
    W.make ~seed:workload_seed ~record_count:300 ~operation_count:1_200
      ~read_proportion:0.6 ~field_length:24 ()
  in
  let table : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let lock = Mutex.create () in
  let threads = 4 in
  let traces = Array.init threads (fun _ -> Buffer.create 4096) in
  let loader : Ycsb.Runner.db =
    { db_read = (fun k -> Hashtbl.mem table k);
      db_update =
        (fun k v ->
          Hashtbl.replace table k v;
          true) }
  in
  let db_for tid : Ycsb.Runner.batch_db =
    { b_run =
        (fun ops ->
          Vm.Sync.advance 300;
          Mutex.lock lock;
          let oks =
            List.map
              (fun op ->
                match op with
                | W.Read k ->
                  Vm.Sync.advance 500;
                  Buffer.add_string traces.(tid) ("R " ^ k ^ "\n");
                  Hashtbl.mem table k
                | W.Update (k, v) ->
                  Vm.Sync.advance 800;
                  Buffer.add_string traces.(tid)
                    (Printf.sprintf "U %s %d\n" k (String.length v));
                  Hashtbl.replace table k v;
                  true)
              ops
          in
          Mutex.unlock lock;
          oks) }
  in
  let vm = Vm.create ~sched_seed () in
  let res = ref None in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
         Run.load w loader;
         res := Some (Run.run_batched ~threads ~batch w ~db_for)));
  Vm.run vm;
  let r = Option.get !res in
  ( Array.to_list (Array.map Buffer.contents traces),
    [ hist_fingerprint r.Ycsb.Runner.r_hist;
      hist_fingerprint r.Ycsb.Runner.r_read_hist;
      hist_fingerprint r.Ycsb.Runner.r_update_hist ],
    (r.Ycsb.Runner.r_ops, r.Ycsb.Runner.r_hits, r.Ycsb.Runner.r_misses),
    Vm.events_processed vm )

let test_determinism_batched_same_seed () =
  List.iter
    (fun batch ->
      let t1, h1, c1, e1 =
        run_seeded_ycsb_batched ~sched_seed:4242 ~workload_seed:17 ~batch
      in
      let t2, h2, c2, e2 =
        run_seeded_ycsb_batched ~sched_seed:4242 ~workload_seed:17 ~batch
      in
      let tag fmt = Printf.sprintf fmt batch in
      Alcotest.(check (list string))
        (tag "B=%d per-thread op streams byte-identical") t1 t2;
      Alcotest.(check (list string)) (tag "B=%d histogram stats") h1 h2;
      let ops1, hits1, miss1 = c1 and ops2, hits2, miss2 = c2 in
      Alcotest.(check int) (tag "B=%d ops") ops1 ops2;
      Alcotest.(check int) (tag "B=%d hits") hits1 hits2;
      Alcotest.(check int) (tag "B=%d misses") miss1 miss2;
      Alcotest.(check int) (tag "B=%d scheduler events") e1 e2)
    [ 1; 8; 32 ]

let test_batch_size_preserves_op_streams () =
  (* The knob moves execution grouping only: every thread draws the
     same keys in the same order whether it flushes every op or every
     32. *)
  let t1, _, (ops1, _, _), _ =
    run_seeded_ycsb_batched ~sched_seed:4242 ~workload_seed:17 ~batch:1
  in
  List.iter
    (fun batch ->
      let tb, _, (opsb, _, _), _ =
        run_seeded_ycsb_batched ~sched_seed:4242 ~workload_seed:17 ~batch
      in
      Alcotest.(check int)
        (Printf.sprintf "B=%d executes the same op count" batch)
        ops1 opsb;
      Alcotest.(check (list string))
        (Printf.sprintf "B=%d leaves per-thread op streams unchanged" batch)
        t1 tb)
    [ 8; 32 ]

(* Same-seed determinism through the real protected-library store with
   the seqlock read path on. An optimistic get's outcome — hit on the
   first snapshot, retry after a conflict, or fall back to the stripe
   lock — depends on what concurrent writers do, so the whole cascade
   must replay identically under the seeded scheduler, at every batch
   size the acceptance sweep cares about. The opt_* counter deltas are
   the sharp assertion: equal retries means equal interleavings, not
   just equal final answers. *)
let plib_det_names = Atomic.make 0

let run_seeded_ycsb_plib ~sched_seed ~workload_seed ~batch =
  let module Cl = Core.Client.Make (Vm.Sync) in
  let module Plib = Cl.Plib in
  let module Run = Ycsb.Runner.Make (Vm.Sync) in
  let module TC = Telemetry.Counters in
  let w =
    W.make ~seed:workload_seed ~record_count:300 ~operation_count:1_200
      ~read_proportion:0.95 ~field_length:24 ()
  in
  let path =
    Printf.sprintf "/dev/shm/ycsb-det-%d"
      (Atomic.fetch_and_add plib_det_names 1)
  in
  let owner = Simos.Process.make ~uid:1000 "mc-det" in
  let plib =
    (* few stripes so the zipfian hot keys actually collide *)
    Plib.create
      ~store_cfg:
        { Mc_core.Store.default_config with hashpower = 9; lock_count = 8;
          lru_count = 4; stats_slots = 4 }
      ~path ~size:(8 lsl 20) ~owner ()
  in
  let opt0 =
    ( TC.read TC.Id.opt_hits, TC.read TC.Id.opt_retries,
      TC.read TC.Id.opt_fallbacks )
  in
  let db : Ycsb.Runner.batch_db =
    { b_run =
        (fun ops ->
          let module P = Mc_protocol.Types in
          let cmds =
            List.map
              (function
                | W.Read k -> P.Get [ k ]
                | W.Update (k, v) ->
                  P.Set
                    { P.key = k; flags = 0; exptime = 0; data = v;
                      noreply = false })
              ops
          in
          List.map
            (function
              | P.Values { vals; _ } -> vals <> []
              | P.Stored -> true
              | _ -> false)
            (Plib.batch plib cmds)) }
  in
  let vm = Vm.create ~sched_seed () in
  let res = ref None in
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
         Run.load w
           { db_read = (fun k -> Plib.get plib k <> None);
             db_update =
               (fun k v -> Plib.set plib k v = Mc_core.Store.Stored) };
         res := Some (Run.run_batched ~threads:4 ~batch w ~db_for:(fun _ -> db))));
  Vm.run vm;
  let r = Option.get !res in
  let h0, r0, f0 = opt0 in
  ( (r.Ycsb.Runner.r_ops, r.Ycsb.Runner.r_hits, r.Ycsb.Runner.r_misses),
    ( TC.read TC.Id.opt_hits - h0, TC.read TC.Id.opt_retries - r0,
      TC.read TC.Id.opt_fallbacks - f0 ),
    Vm.events_processed vm )

let test_determinism_plib_optimistic_same_seed () =
  List.iter
    (fun batch ->
      let c1, o1, e1 =
        run_seeded_ycsb_plib ~sched_seed:4242 ~workload_seed:17 ~batch
      in
      let c2, o2, e2 =
        run_seeded_ycsb_plib ~sched_seed:4242 ~workload_seed:17 ~batch
      in
      let tag fmt = Printf.sprintf fmt batch in
      let ops1, hits1, miss1 = c1 and ops2, hits2, miss2 = c2 in
      Alcotest.(check int) (tag "B=%d ops") ops1 ops2;
      Alcotest.(check int) (tag "B=%d hits") hits1 hits2;
      Alcotest.(check int) (tag "B=%d misses") miss1 miss2;
      let oh1, or1, of1 = o1 and oh2, or2, of2 = o2 in
      Alcotest.(check int) (tag "B=%d optimistic hits") oh1 oh2;
      Alcotest.(check int) (tag "B=%d optimistic retries") or1 or2;
      Alcotest.(check int) (tag "B=%d optimistic fallbacks") of1 of2;
      Alcotest.(check bool) (tag "B=%d read path exercised") true (oh1 > 0);
      Alcotest.(check int) (tag "B=%d scheduler events") e1 e2)
    [ 1; 8; 32 ]

(* Open-loop determinism end-to-end through the shared-ring transport:
   paced submitters stream requests into per-connection submission
   rings, the server drains whatever each ring holds, and completions
   come back through the completion ring. The offered rate decides how
   much piles up between drains, and it must change only *where*
   execution batches — two same-seed runs are identical at every rate,
   and the per-thread submission streams (keys, order, sizes) are
   byte-identical across rates. *)

let rings_det_names = Atomic.make 0

(* Transport counts a same-seed replay must reproduce exactly. *)
let ring_counts =
  let module Id = Telemetry.Counters.Id in
  [ ("ring drains", Id.ring_drains); ("drained ops", Id.ring_drain_ops);
    ("completion wakeups", Id.ring_wakes); ("doorbells", Id.ring_doorbells);
    ("early ring reads", Id.ring_early_reads) ]

let run_seeded_open_rings ~sched_seed ~workload_seed ~rate_kops =
  let module Cl = Core.Client.Make (Vm.Sync) in
  let module Plib = Cl.Plib in
  let module Sock = Cl.Sock in
  let module Run = Ycsb.Runner.Make (Vm.Sync) in
  let module TC = Telemetry.Counters in
  let module P = Mc_protocol.Types in
  let w =
    W.make ~seed:workload_seed ~record_count:300 ~operation_count:1_200
      ~read_proportion:0.9 ~field_length:24 ()
  in
  let id = Atomic.fetch_and_add rings_det_names 1 in
  let plib =
    Plib.create
      ~store_cfg:
        { Mc_core.Store.default_config with hashpower = 9; lock_count = 8;
          lru_count = 4; stats_slots = 4 }
      ~path:(Printf.sprintf "/dev/shm/ycsb-rings-%d" id)
      ~size:(8 lsl 20)
      ~owner:(Simos.Process.make ~uid:1000 "mc-rings-det")
      ()
  in
  let rings = Mc_server.Server.default_ring_config in
  let c0 = List.map (fun (_, id) -> TC.read id) ring_counts in
  let threads = 2 in
  let traces = Array.init threads (fun _ -> Buffer.create 4096) in
  let vm = Vm.create ~sched_seed () in
  let res = ref None in
  Fun.protect
    ~finally:(fun () -> Hodor.Library.release (Plib.library plib))
    (fun () ->
  ignore
    (Vm.spawn vm ~name:"main" (fun () ->
         Run.load w
           { db_read = (fun k -> Plib.get plib k <> None);
             db_update =
               (fun k v -> Plib.set plib k v = Mc_core.Store.Stored) };
         let name = Printf.sprintf "rings-det-%d" id in
         let srv = Plib.serve_remote ~rings plib ~name in
         let open_db tid : Ycsb.Runner.open_db =
           let st = Sock.stream (Sock.connect ~name ()) in
           let inflight = Queue.create () in
           { o_submit =
               (fun op ->
                 let cmd =
                   match op with
                   | W.Read k ->
                     Buffer.add_string traces.(tid) ("R " ^ k ^ "\n");
                     P.Gets [ k ]
                   | W.Update (k, v) ->
                     Buffer.add_string traces.(tid)
                       (Printf.sprintf "U %s %d\n" k (String.length v));
                     P.Set { P.key = k; flags = 0; exptime = 0; data = v;
                             noreply = false }
                 in
                 Queue.push cmd inflight;
                 Sock.submit st cmd);
             o_await =
               (fun () ->
                 match Sock.await st (Queue.pop inflight) with
                 | P.Values { vals; _ } -> vals <> []
                 | P.Stored -> true
                 | _ -> false) }
         in
         res := Some (Run.run_open ~threads ~rate_kops w ~db_for:open_db);
         Plib.stop_remote srv));
  Vm.run vm;
  let r = Option.get !res in
  ( Array.to_list (Array.map Buffer.contents traces),
    (r.Ycsb.Runner.r_ops, r.Ycsb.Runner.r_hits, r.Ycsb.Runner.r_misses),
    List.map2 (fun (name, id) v0 -> (name, TC.read id - v0)) ring_counts c0,
    Vm.events_processed vm ))

(* 50 kops leaves each worker idle between requests; 4000 kops offers
   each connection several times what its worker can serve. *)
let open_ring_rates = [ 50; 400; 4000 ]

let test_determinism_open_rings_same_seed () =
  List.iter
    (fun rate_kops ->
      let t1, c1, r1, e1 =
        run_seeded_open_rings ~sched_seed:4242 ~workload_seed:17 ~rate_kops
      in
      let t2, c2, r2, e2 =
        run_seeded_open_rings ~sched_seed:4242 ~workload_seed:17 ~rate_kops
      in
      let tag fmt = Printf.sprintf fmt rate_kops in
      Alcotest.(check (list string))
        (tag "%d kops submission streams byte-identical") t1 t2;
      let ops1, hits1, miss1 = c1 and ops2, hits2, miss2 = c2 in
      Alcotest.(check int) (tag "%d kops ops") ops1 ops2;
      Alcotest.(check int) (tag "%d kops hits") hits1 hits2;
      Alcotest.(check int) (tag "%d kops misses") miss1 miss2;
      (* both sides' spin-before-park windows run on virtual time too,
         and so does which ring reads land ahead of their producer *)
      List.iter2
        (fun (name, v1) (_, v2) ->
          Alcotest.(check int) (tag "%d kops " ^ name) v1 v2)
        r1 r2;
      let count name = List.assoc name r1 in
      Alcotest.(check bool) (tag "%d kops client parks exercised") true
        (count "completion wakeups" > 0);
      Alcotest.(check bool) (tag "%d kops worker parks exercised") true
        (count "doorbells" > 0);
      Alcotest.(check bool) (tag "%d kops rings exercised") true
        (count "ring drains" > 0);
      Alcotest.(check int) (tag "%d kops scheduler events") e1 e2)
    open_ring_rates

let test_backlog_batching_preserves_op_streams () =
  (* Drains batch only what piled up while the worker was busy, and
     that moves execution grouping only: every client submits the same
     keys in the same order whatever the offered rate. A slow stream
     drains one request at a time, with nothing held back to wait for
     company; a stream past saturation batches its backlog. *)
  let drains r = (List.assoc "ring drains" r, List.assoc "drained ops" r) in
  let t1, (ops1, hits1, miss1), r1, _ =
    run_seeded_open_rings ~sched_seed:4242 ~workload_seed:17 ~rate_kops:50
  in
  let d1, o1 = drains r1 in
  Alcotest.(check int)
    (Printf.sprintf "50 kops drains one op at a time (%d/%d)" o1 d1)
    d1 o1;
  List.iter
    (fun rate_kops ->
      let tb, (opsb, hitsb, missb), rb, _ =
        run_seeded_open_rings ~sched_seed:4242 ~workload_seed:17 ~rate_kops
      in
      let db, ob = drains rb in
      let tag fmt = Printf.sprintf fmt rate_kops in
      Alcotest.(check int) (tag "%d kops same op count") ops1 opsb;
      Alcotest.(check int) (tag "%d kops same hits") hits1 hitsb;
      Alcotest.(check int) (tag "%d kops same misses") miss1 missb;
      Alcotest.(check (list string))
        (tag "%d kops identical submission streams") t1 tb;
      if rate_kops = 4000 then
        Alcotest.(check bool)
          (Printf.sprintf "backlog batches (%d ops in %d drains)" ob db)
          true (ob >= 2 * db))
    [ 400; 4000 ]

let qcheck_histogram_value_in_bucket_bounds =
  QCheck.Test.make ~name:"percentile(100) bounds any recorded value" ~count:200
    QCheck.(int_range 1 1_000_000_000)
    (fun v ->
      let h = H.create () in
      H.record h v;
      let p = H.percentile h 100.0 in
      (* bucket midpoint error < 4% *)
      float_of_int (abs (p - v)) <= 0.04 *. float_of_int v)

let () =
  Alcotest.run "ycsb"
    [ ( "generators",
        [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
          Alcotest.test_case "zipfian skew" `Quick test_zipfian_bounds_and_skew;
          Alcotest.test_case "scrambled spread" `Quick
            test_scrambled_zipfian_spreads_hotset;
          Alcotest.test_case "mix ratio" `Quick test_workload_mix_ratio;
          Alcotest.test_case "value sizing" `Quick test_workload_values_sized;
          Alcotest.test_case "paper workloads" `Quick test_paper_workloads ] );
      ( "histogram",
        [ Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "wide range" `Quick test_histogram_wide_range;
          QCheck_alcotest.to_alcotest qcheck_histogram_value_in_bucket_bounds ] );
      ( "runner",
        [ Alcotest.test_case "vm harness" `Quick test_runner_in_vm ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, identical run" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "seed sensitivity" `Quick
            test_determinism_seed_sensitivity;
          Alcotest.test_case "batched run, same seed" `Quick
            test_determinism_batched_same_seed;
          Alcotest.test_case "batch size preserves op streams" `Quick
            test_batch_size_preserves_op_streams;
          Alcotest.test_case "plib + seqlock reads, same seed" `Quick
            test_determinism_plib_optimistic_same_seed;
          Alcotest.test_case "open-loop rings, same seed" `Quick
            test_determinism_open_rings_same_seed;
          Alcotest.test_case "backlog batching preserves op streams" `Quick
            test_backlog_batching_preserves_op_streams ] ) ]
