(** YCSB load generator: drive a chosen backend with a configurable
    workload on the modeled machine and report latency/throughput.

    Examples:
      dune exec bin/loadgen.exe -- --backend plib --threads 8
      dune exec bin/loadgen.exe -- --backend socket --workers 4 \
          --threads 16 --reads 0.95 --value-size 5120 --ops 50000
      dune exec bin/loadgen.exe -- --backend plib-nohodor --threads 20 *)

module S = Vm.Sync
module Client = Core.Client.Make (Vm.Sync)
module Server = Mc_server.Server.Make (Vm.Sync) (Client.T)
module Run = Ycsb.Runner.Make (Vm.Sync)
module CM = Platform.Cost_model

type backend = Socket | Plib | Plib_nohodor

let in_vm f =
  let vm = Vm.create () in
  let out = ref None in
  ignore (Vm.spawn vm ~name:"main" (fun () -> out := Some (f ())));
  Vm.run vm;
  Option.get !out

let run backend threads workers ops reads value_size records =
  let w =
    Ycsb.Workload.make ~name:"loadgen" ~record_count:records
      ~operation_count:ops ~read_proportion:reads ~field_length:value_size ()
  in
  let store_cfg =
    { Mc_core.Store.default_config with
      hashpower = max 10 (int_of_float (Float.log2 (float_of_int records)));
      lock_count = 1024; lru_count = 64; stats_slots = 64 }
  in
  let heap = max (256 lsl 20) (4 * records * (value_size + 128)) in
  let result =
    match backend with
    | Socket ->
      let arena = Mc_core.Private_memory.create ~limit:(2 * heap) in
      let slab = Mc_core.Slab.create ~arena ~mem_limit:heap in
      let store =
        Server.Store.create ~mem:arena ~alloc:slab
          { store_cfg with lru_by_size_class = true }
      in
      in_vm (fun () ->
        Run.load w
          { db_read = (fun k -> Server.Store.get store k <> None);
            db_update =
              (fun k v -> Server.Store.set store k v = Mc_core.Store.Stored) };
        let srv =
          Server.start
            ~cfg:{ Mc_server.Server.default_config with workers }
            ~prebuilt:store ~name:"loadgen" ()
        in
        let conns =
          Array.init threads (fun _ -> Client.Sock.connect ~name:"loadgen" ())
        in
        let db i =
          let c = conns.(i) in
          { Ycsb.Runner.db_read =
              (fun k ->
                S.advance CM.current.ycsb_driver;
                Client.Sock.get c k <> None);
            db_update =
              (fun k v ->
                S.advance CM.current.ycsb_driver;
                Client.Sock.set c k v = Mc_core.Store.Stored) }
        in
        let r = Run.run ~threads w ~db_for:db in
        Server.stop srv;
        r)
    | Plib | Plib_nohodor ->
      let protection =
        match backend with
        | Plib -> Hodor.Library.Protected
        | Plib_nohodor | Socket -> Hodor.Library.Unprotected
      in
      let owner = Simos.Process.make ~uid:1000 "loadgen-bk" in
      let plib =
        Client.Plib.create ~protection ~store_cfg ~path:"/dev/shm/loadgen-kv"
          ~size:heap ~owner ()
      in
      let db =
        { Ycsb.Runner.db_read =
            (fun k ->
              S.advance CM.current.ycsb_driver;
              Client.Plib.get plib k <> None);
          db_update =
            (fun k v ->
              S.advance CM.current.ycsb_driver;
              Client.Plib.set plib k v = Mc_core.Store.Stored) }
      in
      in_vm (fun () ->
        Run.load w db;
        Run.run ~threads w ~db_for:(fun _ -> db))
  in
  let h = result.Ycsb.Runner.r_hist in
  let p q = float_of_int (Ycsb.Histogram.percentile h q) /. 1e3 in
  Printf.printf "backend=%s threads=%d ops=%d reads=%.2f value=%dB records=%d\n"
    (match backend with
     | Socket -> Printf.sprintf "socket(workers=%d)" workers
     | Plib -> "plib"
     | Plib_nohodor -> "plib-nohodor")
    threads result.Ycsb.Runner.r_ops reads value_size records;
  Printf.printf "throughput: %.0f KTPS (virtual time %.2f ms)\n"
    (Ycsb.Runner.throughput_ktps result)
    (float_of_int result.Ycsb.Runner.r_elapsed_ns /. 1e6);
  Printf.printf "latency us: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n"
    (Ycsb.Histogram.mean h /. 1e3)
    (p 50.0) (p 95.0) (p 99.0)
    (float_of_int (Ycsb.Histogram.max_value h) /. 1e3);
  Printf.printf "hits: %d  misses: %d\n" result.Ycsb.Runner.r_hits
    result.Ycsb.Runner.r_misses

open Cmdliner

let backend_conv =
  Arg.enum
    [ ("socket", Socket); ("plib", Plib); ("plib-nohodor", Plib_nohodor) ]

let backend =
  Arg.(value & opt backend_conv Plib & info [ "backend"; "b" ] ~docv:"BACKEND")

let threads = Arg.(value & opt int 8 & info [ "threads"; "t" ] ~docv:"N")

let workers = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N")

let ops = Arg.(value & opt int 40_000 & info [ "ops" ] ~docv:"N")

let reads = Arg.(value & opt float 0.5 & info [ "reads" ] ~docv:"FRACTION")

let value_size = Arg.(value & opt int 128 & info [ "value-size" ] ~docv:"BYTES")

let records = Arg.(value & opt int 100_000 & info [ "records" ] ~docv:"N")

let cmd =
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"YCSB workload driver for the memcached reproduction")
    Term.(const run $ backend $ threads $ workers $ ops $ reads $ value_size
          $ records)

let () = exit (Cmd.eval cmd)
