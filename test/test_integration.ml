(** Whole-stack integration: YCSB workloads driven end-to-end over
    both deployments inside the virtual-time machine, checked for
    functional agreement (both backends are the same store semantics)
    and for determinism of the simulation. *)

module S = Vm.Sync
module Cl = Core.Client.Make (Vm.Sync)
module Srv = Mc_server.Server.Make (Vm.Sync) (Cl.T)
module Run = Ycsb.Runner.Make (Vm.Sync)
module Process = Simos.Process

let fresh_id = ref 100

let in_vm f =
  let vm = Vm.create () in
  let out = ref None in
  ignore (Vm.spawn vm ~name:"main" (fun () -> out := Some (f ())));
  Vm.run vm;
  (Option.get !out, vm)

let small_workload ~ops =
  Ycsb.Workload.make ~name:"integration" ~record_count:2_000
    ~operation_count:ops ~read_proportion:0.8 ~field_length:64 ()

let run_plib ~threads ~ops =
  incr fresh_id;
  let owner = Process.make ~uid:1000 "bk-int" in
  let plib =
    Cl.Plib.create
      ~store_cfg:
        { Mc_core.Store.default_config with hashpower = 12; lock_count = 64;
          lru_count = 8; stats_slots = 8 }
      ~path:(Printf.sprintf "/shm/int-%d" !fresh_id)
      ~size:(32 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () -> Hodor.Library.release (Cl.Plib.library plib))
    (fun () ->
      let db =
        { Ycsb.Runner.db_read = (fun k -> Cl.Plib.get plib k <> None);
          db_update =
            (fun k v -> Cl.Plib.set plib k v = Mc_core.Store.Stored) }
      in
      let w = small_workload ~ops in
      in_vm (fun () ->
        Run.load w db;
        let r = Run.run ~threads w ~db_for:(fun _ -> db) in
        Shm.Region.kernel_mode (fun () ->
          Cl.Plib.Store.check_invariants (Cl.Plib.store plib));
        r))

let run_socket ~threads ~ops =
  incr fresh_id;
  let name = Printf.sprintf "int-%d" !fresh_id in
  let w = small_workload ~ops in
  in_vm (fun () ->
    let srv =
      Srv.start
        ~cfg:
          { Mc_server.Server.default_config with workers = 4;
            store =
              { Mc_core.Store.default_config with hashpower = 12;
                lock_count = 64; lru_count = 8; stats_slots = 8;
                lru_by_size_class = true } }
        ~name ()
    in
    (* load directly into the server's store *)
    Run.load w
      { db_read = (fun k -> Srv.Store.get (Srv.store srv) k <> None);
        db_update =
          (fun k v -> Srv.Store.set (Srv.store srv) k v = Mc_core.Store.Stored) };
    let conns = Array.init threads (fun _ -> Cl.Sock.connect ~name ()) in
    let db i =
      let c = conns.(i) in
      { Ycsb.Runner.db_read = (fun k -> Cl.Sock.get c k <> None);
        db_update = (fun k v -> Cl.Sock.set c k v = Mc_core.Store.Stored) }
    in
    let r = Run.run ~threads w ~db_for:db in
    Srv.Store.check_invariants (Srv.store srv);
    Srv.stop srv;
    r)

let test_functional_agreement () =
  (* Same workload, same seed: both deployments serve identical data,
     so the hit/miss counts must agree exactly. *)
  let (rp, _) = run_plib ~threads:4 ~ops:4_000 in
  let (rs, _) = run_socket ~threads:4 ~ops:4_000 in
  Alcotest.(check int) "ops agree" rp.Ycsb.Runner.r_ops rs.Ycsb.Runner.r_ops;
  Alcotest.(check int) "hits agree" rp.Ycsb.Runner.r_hits
    rs.Ycsb.Runner.r_hits;
  Alcotest.(check int) "zero misses on a loaded store" 0
    rp.Ycsb.Runner.r_misses

let test_plib_faster_than_socket () =
  let (rp, _) = run_plib ~threads:4 ~ops:4_000 in
  let (rs, _) = run_socket ~threads:4 ~ops:4_000 in
  let tp = Ycsb.Runner.throughput_ktps rp in
  let ts = Ycsb.Runner.throughput_ktps rs in
  Alcotest.(check bool)
    (Printf.sprintf "plib (%.0f KTPS) at least 3x socket (%.0f KTPS)" tp ts)
    true (tp > 3.0 *. ts)

let test_simulation_determinism () =
  let (r1, vm1) = run_plib ~threads:8 ~ops:3_000 in
  let (r2, vm2) = run_plib ~threads:8 ~ops:3_000 in
  Alcotest.(check int) "same virtual duration" r1.Ycsb.Runner.r_elapsed_ns
    r2.Ycsb.Runner.r_elapsed_ns;
  Alcotest.(check int) "same event count" (Vm.events_processed vm1)
    (Vm.events_processed vm2);
  Alcotest.(check int) "same hits" r1.Ycsb.Runner.r_hits r2.Ycsb.Runner.r_hits

let test_latency_orders_of_magnitude () =
  let (rp, _) = run_plib ~threads:1 ~ops:2_000 in
  let (rs, _) = run_socket ~threads:1 ~ops:2_000 in
  let p50p = Ycsb.Histogram.percentile rp.Ycsb.Runner.r_hist 50.0 in
  let p50s = Ycsb.Histogram.percentile rs.Ycsb.Runner.r_hist 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "plib p50 %dns sub-2us" p50p)
    true (p50p < 2_000);
  Alcotest.(check bool)
    (Printf.sprintf "socket p50 %dns over 10us" p50s)
    true (p50s > 10_000)

(* Drive the paper's exact workload definitions end to end (miniature
   op counts) over the plib — the benchmark harness path, asserted. *)
let test_paper_workloads_run () =
  List.iter
    (fun (small_value, read_heavy) ->
      incr fresh_id;
      let owner = Process.make ~uid:1000 "bk-paper" in
      let plib =
        Cl.Plib.create
          ~store_cfg:
            { Mc_core.Store.default_config with hashpower = 12;
              lock_count = 64; lru_count = 8; stats_slots = 8 }
          ~path:(Printf.sprintf "/shm/int-%d" !fresh_id)
          ~size:(128 lsl 20) ~owner ()
      in
      Fun.protect
        ~finally:(fun () -> Hodor.Library.release (Cl.Plib.library plib))
        (fun () ->
          let w =
            { (Ycsb.Workload.paper ~small_value ~read_heavy ~scale:1000
                 ~operation_count:1_000 ())
              with Ycsb.Workload.seed = 7 }
          in
          let db =
            { Ycsb.Runner.db_read = (fun k -> Cl.Plib.get plib k <> None);
              db_update =
                (fun k v -> Cl.Plib.set plib k v = Mc_core.Store.Stored) }
          in
          let r, _ =
            in_vm (fun () ->
              Run.load w db;
              Run.run ~threads:4 w ~db_for:(fun _ -> db))
          in
          Alcotest.(check int)
            (Printf.sprintf "paper workload %s ran all ops" w.Ycsb.Workload.name)
            1_000 r.Ycsb.Runner.r_ops;
          Alcotest.(check int) "no misses" 0 r.Ycsb.Runner.r_misses))
    [ (true, true); (true, false); (false, true); (false, false) ]

let () =
  Alcotest.run "integration"
    [ ( "end to end",
        [ Alcotest.test_case "functional agreement" `Quick
            test_functional_agreement;
          Alcotest.test_case "plib beats socket" `Quick
            test_plib_faster_than_socket;
          Alcotest.test_case "determinism" `Quick test_simulation_determinism;
          Alcotest.test_case "latency separation" `Quick
            test_latency_orders_of_magnitude;
          Alcotest.test_case "paper workloads" `Quick test_paper_workloads_run ] ) ]
