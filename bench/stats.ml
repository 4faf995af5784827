(** Telemetry snapshot: domain-crossing counts per YCSB workload mix
    and a full [stats] dump of the protected-library store.

    The crossing counts ground EXPERIMENTS.md's table: every client
    operation enters the library through exactly one trampoline, so
    crossings/op should sit at ~1.0 for any read/update mix — the
    paper's Figure 5 latencies are per-crossing costs, and the mix
    (YCSB A 50/50, B 95/5, C 100/0) moves which ops pay them, not how
    many crossings occur. The final STAT block is the snapshot the CI
    workflow uploads as an artifact. *)

open Scenarios
module C = Telemetry.Counters

let mixes = [ ("A", 0.5); ("B", 0.95); ("C", 1.0) ]

let records = 20_000

let workload (tag, read_proportion) ~ops =
  Ycsb.Workload.make
    ~name:("ycsb-" ^ tag)
    ~record_count:records ~operation_count:ops ~read_proportion
    ~field_length:128 ()

let run ~ops () =
  header "Telemetry: crossings per YCSB workload + stats snapshot";
  let plib =
    make_plib ~protection:Hodor.Library.Protected ~size:(64 lsl 20)
      ~hashpower:15 ()
  in
  load_plib plib (workload (List.hd mixes) ~ops);
  pf "%-10s %10s %12s %14s %12s\n" "workload" "ops" "crossings"
    "crossings/op" "pkru wr/op";
  List.iter
    (fun mix ->
      let w = workload mix ~ops in
      (* Per-workload window: the shared-heap counters are cumulative,
         so zero them between runs. *)
      C.reset ();
      Telemetry.Probe.Latency.reset ();
      ignore (plib_point ~plib ~threads:4 w);
      let enters = C.read C.Id.hodor_enter in
      let wrpkru = C.read C.Id.pkru_writes in
      pf "%-10s %10d %12d %14.3f %12.3f\n"
        (fst mix) ops enters
        (float_of_int enters /. float_of_int ops)
        (float_of_int wrpkru /. float_of_int ops);
      pf "crossings.ycsb_%s %d\n" (fst mix) enters;
      note ~run:"stats" ~metric:("crossings_per_op_ycsb_" ^ fst mix)
        ~unit_:"crossings/op" (float_of_int enters /. float_of_int ops))
    mixes;
  (* Batch plane: the same read-heavy mix driven through the batched
     op path at B ops per crossing. crossings/op = 1/B up to the final
     partial batch each thread flushes; pkru writes/op = 2/B. The
     greppable [batch.*] lines are what the CI gate asserts on. *)
  header "Batch plane: crossings amortized over batch size (YCSB B)";
  pf "%-8s %10s %12s %14s %12s %12s %10s\n" "batch" "ops" "crossings"
    "crossings/op" "pkru wr/op" "ktps" "mean_B";
  let base_ktps = ref 0.0 in
  List.iter
    (fun b ->
      C.reset ();
      Telemetry.Probe.Latency.reset ();
      Telemetry.Span.reset ();
      Telemetry.Contention.reset ();
      let res =
        plib_batch_point ~plib ~threads:4 ~batch:b (workload ("B", 0.95) ~ops)
      in
      let enters = C.read C.Id.hodor_enter in
      let wrpkru = C.read C.Id.pkru_writes in
      let bcalls = C.read C.Id.hodor_batch_calls in
      let bops = C.read C.Id.hodor_batch_ops in
      let ktps = Ycsb.Runner.throughput_ktps res in
      if b = 1 then base_ktps := ktps;
      pf "%-8d %10d %12d %14.4f %12.4f %12.1f %10.2f\n" b ops enters
        (float_of_int enters /. float_of_int ops)
        (float_of_int wrpkru /. float_of_int ops)
        ktps
        (float_of_int bops /. float_of_int (max 1 bcalls));
      pf "batch.crossings_per_op.B%d %.4f\n" b
        (float_of_int enters /. float_of_int ops);
      pf "batch.pkru_per_op.B%d %.4f\n" b
        (float_of_int wrpkru /. float_of_int ops);
      pf "batch.ktps.B%d %.1f\n" b ktps;
      if b > 1 then pf "batch.speedup.B%d %.3f\n" b (ktps /. !base_ktps);
      note ~run:"batch" ~metric:(Printf.sprintf "crossings_per_op_B%d" b)
        ~unit_:"crossings/op" (float_of_int enters /. float_of_int ops);
      note ~run:"batch" ~metric:(Printf.sprintf "ktps_B%d" b) ~unit_:"ktps"
        ktps;
      (* Span-level attribution for this window: the crossing phase's
         self time per op shrinks ~1/B while the store phase holds
         steady — the per-phase view of why batching wins. *)
      let phases = Telemetry.Span.phase_report () in
      let e2e = Telemetry.Span.e2e_report () in
      let self_of name =
        match List.assoc_opt name phases with
        | Some s -> s
        | None ->
          { Telemetry.Span.p_count = 0; p_self_ns = 0; p_p50_ns = 0;
            p_p99_ns = 0 }
      in
      let crossing = self_of "crossing" and store = self_of "store" in
      pf "span.crossing_self_per_op_ns.B%d %.1f\n" b
        (float_of_int crossing.Telemetry.Span.p_self_ns /. float_of_int ops);
      pf "span.crossing_p99_ns.B%d %d\n" b crossing.Telemetry.Span.p_p99_ns;
      pf "span.store_p99_ns.B%d %d\n" b store.Telemetry.Span.p_p99_ns;
      pf "span.crossing_share.B%d %.4f\n" b
        (float_of_int crossing.Telemetry.Span.p_self_ns
         /. float_of_int (max 1 e2e.Telemetry.Span.p_self_ns)))
    [ 1; 8; 32 ];

  (* Phase-attribution JSON (the CI artifact) and a trace-tree sample
     from the last (B=32) window. *)
  pf "phases.json %s\n" (Telemetry.Span.phases_json ());
  (match Telemetry.Contention.kvs ~k:4 () with
   | [] -> ()
   | kvs -> List.iter (fun (k, v) -> pf "STAT %s %s\n" k v) kvs);
  pf "--- trace-tree sample ---\n";
  List.iter
    (fun tr -> pf "%s" (Telemetry.Span.render_tree tr))
    (Telemetry.Span.traces ~n:2 ());
  pf "--- end trace-tree ---\n";

  pf "\nstats snapshot (last workload window):\n";
  let kvs =
    in_vm (fun () -> Plib.stats plib) @ Telemetry.Probe.Latency.kvs ()
  in
  List.iter (fun (k, v) -> pf "STAT %s %s\n" k v) kvs;

  (* Seqlock read path: the same read-only mix against the same store
     geometry, once with every get taking its stripe lock and once
     optimistic. Few stripes (8) so the zipfian hot keys actually
     collide — the point is how much stripe wait the optimistic path
     makes disappear, which is what the CI gate asserts (ratio <=
     0.5). *)
  header "Seqlock read path: stripe wait, locked vs optimistic (YCSB B/C)";
  let measure w ~optimistic =
    let plib =
      make_plib ~optimistic ~lock_count:8
        ~protection:Hodor.Library.Protected ~size:(32 lsl 20) ~hashpower:14 ()
    in
    load_plib plib w;
    C.reset ();
    Telemetry.Probe.Latency.reset ();
    Telemetry.Contention.reset ();
    let res = plib_point ~plib ~threads:8 w in
    let _, acqs, wait = Telemetry.Contention.totals () in
    (Ycsb.Runner.throughput_ktps res, acqs, wait)
  in
  pf "%-6s %-12s %12s %14s %12s\n" "mix" "read path" "ktps" "stripe acqs"
    "wait_ns";
  List.iter
    (fun (tag, rp) ->
      let w = workload (tag, rp) ~ops in
      let ktps_l, acqs_l, wait_l = measure w ~optimistic:false in
      let hits = C.read C.Id.opt_hits in
      let retries = C.read C.Id.opt_retries in
      let fallbacks = C.read C.Id.opt_fallbacks in
      let ktps_o, acqs_o, wait_o = measure w ~optimistic:true in
      let hits = C.read C.Id.opt_hits - hits in
      let retries = C.read C.Id.opt_retries - retries in
      let fallbacks = C.read C.Id.opt_fallbacks - fallbacks in
      pf "%-6s %-12s %12.1f %14d %12d\n" tag "locked" ktps_l acqs_l wait_l;
      pf "%-6s %-12s %12.1f %14d %12d\n" tag "optimistic" ktps_o acqs_o
        wait_o;
      let line fmt = pf ("optimistic." ^^ fmt ^^ ".ycsb_%s %s\n") in
      line "stripe_wait_total_ns.locked" tag (string_of_int wait_l);
      line "stripe_wait_total_ns.on" tag (string_of_int wait_o);
      line "wait_ratio" tag
        (Printf.sprintf "%.4f" (float_of_int wait_o /. float_of_int (max 1 wait_l)));
      line "ktps.locked" tag (Printf.sprintf "%.1f" ktps_l);
      line "ktps.on" tag (Printf.sprintf "%.1f" ktps_o);
      line "speedup" tag (Printf.sprintf "%.3f" (ktps_o /. ktps_l));
      line "hits" tag (string_of_int hits);
      line "retries" tag (string_of_int retries);
      line "fallbacks" tag (string_of_int fallbacks);
      line "hit_rate" tag
        (Printf.sprintf "%.4f"
           (float_of_int hits /. float_of_int (max 1 (hits + fallbacks))));
      note ~run:"optimistic" ~metric:("wait_ratio_ycsb_" ^ tag)
        ~unit_:"ratio"
        (float_of_int wait_o /. float_of_int (max 1 wait_l));
      note ~run:"optimistic" ~metric:("speedup_ycsb_" ^ tag) ~unit_:"ratio"
        (ktps_o /. ktps_l);
      (* unsuffixed aliases on the read-only mix: what the CI gate greps *)
      if tag = "C" then begin
        pf "optimistic.stripe_wait_total_ns.locked %d\n" wait_l;
        pf "optimistic.stripe_wait_total_ns.on %d\n" wait_o;
        pf "optimistic.wait_ratio %.4f\n"
          (float_of_int wait_o /. float_of_int (max 1 wait_l));
        pf "optimistic.hit_rate %.4f\n"
          (float_of_int hits /. float_of_int (max 1 (hits + fallbacks)))
      end)
    [ ("B", 0.95); ("C", 1.0) ]
