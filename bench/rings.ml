(** Shared-ring transport with a work-conserving drain: the two
    properties the design promises, measured.

    - {b Idle latency}: with one closed-loop client every request
      drains alone the moment the worker sees it, so ring mode's
      single-op round trip is no slower than the legacy per-message
      socket path.
    - {b The knee}: under open-loop (arrival-rate) load the worker never
      waits to form a batch, so p99 stays at the single-op point until
      requests start piling up while it is busy; from there each drain
      takes the whole backlog through one crossing, and ops/drain rises
      with no caller-side batching.

    Greppable lines (CI gates in .github/workflows/ci.yml):
      rings.idle_p50_ns.ring / rings.idle_p50_ns.legacy
      rings.cpo.rate<R> / rings.p99_us.rate<R> / rings.ktps.rate<R> /
      rings.ops_per_drain.rate<R>
    plus, ungated, rings.doorbells_per_op.rate<R> (submissions that
    found the worker parked and rang its doorbell),
    rings.wakes_per_op.rate<R> (completions that found the client
    parked and paid its wakeup) and rings.early_reads_per_op.rate<R>
    (messages a consumer read before its producer's virtual clock
    published them; see EXPERIMENTS.md "Early ring reads"). The first
    two show both sides' spin-before-park windows at work. *)

open Scenarios

module C = Telemetry.Counters

let record_count = 20_000

let workload ~ops =
  Ycsb.Workload.make ~name:"rings" ~record_count ~operation_count:ops
    ~read_proportion:0.9 ~field_length:128 ()

let fresh_plib () =
  make_plib ~protection:Hodor.Library.Protected ~size:(96 lsl 20)
    ~hashpower:16 ()

(* ---- Idle point: closed-loop, one client ------------------------------- *)

let idle_point ~rings ~ops =
  let rings =
    if rings then Some Mc_server.Server.default_ring_config else None
  in
  let plib = fresh_plib () in
  let w = workload ~ops in
  load_plib plib w;
  let name = fresh_name "mc-rings-idle" in
  let r =
    in_vm (fun () ->
      let srv = Plib.serve_remote ?rings plib ~name in
      let conn = Sock.connect ~name () in
      let r = Run.run ~threads:1 w ~db_for:(fun _ -> sock_db conn) in
      Plib.stop_remote srv;
      r)
  in
  Telemetry.Histogram.percentile r.Ycsb.Runner.r_hist 50.0

let run_idle ~ops =
  header "Rings: idle (closed-loop, 1 client) single-op latency";
  let legacy = idle_point ~rings:false ~ops in
  let ring = idle_point ~rings:true ~ops in
  pf "rings.idle_p50_ns.legacy = %d\n" legacy;
  pf "rings.idle_p50_ns.ring = %d\n" ring;
  note_i ~run:"rings" ~metric:"idle_p50_legacy" legacy;
  note_i ~run:"rings" ~metric:"idle_p50_ring" ring;
  pf "  (ring/legacy = %.3f; a lone request must not wait for company)\n"
    (float_of_int ring /. float_of_int legacy)

(* ---- The knee: open-loop sweep over offered rates ----------------------- *)

let rates_kops = [ 50; 100; 200; 400; 800; 1600 ]

(* Ungated transport counts, reported per op at every rate. *)
let per_op_counts =
  [ ("doorbells", C.Id.ring_doorbells); ("wakes", C.Id.ring_wakes);
    ("early_reads", C.Id.ring_early_reads) ]

let run_knee ~ops =
  header "Rings: open-loop knee (crossings/op and p99 vs offered load)";
  let plib = fresh_plib () in
  let w = workload ~ops in
  load_plib plib w;
  let threads = 4 in
  pf "%-12s %10s %10s %10s %10s %12s %10s %10s\n" "offered" "achieved" "cpo"
    "p99_us" "ops/drain" "doorbells/op" "wakes/op" "early/op";
  List.iter
    (fun rate_kops ->
      let name = fresh_name "mc-rings-knee" in
      let e0 = C.read C.Id.hodor_enter in
      let d0 = C.read C.Id.ring_drains and o0 = C.read C.Id.ring_drain_ops in
      let c0 = List.map (fun (_, id) -> C.read id) per_op_counts in
      let r =
        in_vm (fun () ->
          let srv =
            Plib.serve_remote ~rings:Mc_server.Server.default_ring_config plib
              ~name
          in
          let conns = Array.init threads (fun _ -> Sock.connect ~name ()) in
          let r =
            Run.run_open ~threads ~rate_kops w
              ~db_for:(fun i -> sock_open_db conns.(i))
          in
          Plib.stop_remote srv;
          r)
      in
      let crossings = C.read C.Id.hodor_enter - e0 in
      let drains = max 1 (C.read C.Id.ring_drains - d0) in
      let dops = C.read C.Id.ring_drain_ops - o0 in
      let cpo = float_of_int crossings /. float_of_int r.Ycsb.Runner.r_ops in
      let p99 = Telemetry.Histogram.percentile r.Ycsb.Runner.r_hist 99.0 in
      let opd = float_of_int dops /. float_of_int drains in
      let per_op =
        List.map2
          (fun (label, id) v0 ->
            ( label,
              float_of_int (C.read id - v0) /. float_of_int r.Ycsb.Runner.r_ops
            ))
          per_op_counts c0
      in
      let count label = List.assoc label per_op in
      pf "%-12s %10.0f %10.3f %10.1f %10.2f %12.3f %10.3f %10.3f\n"
        (Printf.sprintf "%d kops" rate_kops)
        (Ycsb.Runner.throughput_ktps r)
        cpo (us p99) opd (count "doorbells") (count "wakes")
        (count "early_reads");
      pf "rings.ktps.rate%d = %.0f\n" rate_kops (Ycsb.Runner.throughput_ktps r);
      pf "rings.cpo.rate%d = %.3f\n" rate_kops cpo;
      pf "rings.p99_us.rate%d = %.1f\n" rate_kops (us p99);
      pf "rings.ops_per_drain.rate%d = %.2f\n" rate_kops opd;
      List.iter
        (fun (label, v) ->
          pf "rings.%s_per_op.rate%d = %.3f\n" label rate_kops v)
        per_op;
      note ~run:"rings" ~metric:(Printf.sprintf "ktps_rate%d" rate_kops)
        ~unit_:"ktps" (Ycsb.Runner.throughput_ktps r);
      note ~run:"rings" ~metric:(Printf.sprintf "cpo_rate%d" rate_kops)
        ~unit_:"crossings/op" cpo;
      note ~run:"rings" ~metric:(Printf.sprintf "p99_rate%d" rate_kops)
        ~unit_:"us" (us p99);
      note ~run:"rings" ~metric:(Printf.sprintf "ops_per_drain_rate%d" rate_kops)
        ~unit_:"ops/drain" opd;
      List.iter
        (fun (label, v) ->
          note ~run:"rings"
            ~metric:(Printf.sprintf "%s_per_op_rate%d" label rate_kops)
            ~unit_:(label ^ "/op") v)
        per_op)
    rates_kops

let run ?(ops = 20_000) () =
  run_idle ~ops;
  run_knee ~ops
