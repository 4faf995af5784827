(** Shared plumbing for the paper-reproduction benchmarks: everything
    here runs inside the virtual-time machine on the modeled 10-core /
    20-hyperthread Xeon. *)

module S = Vm.Sync
module Cl = Core.Client.Make (Vm.Sync)
module Plib = Cl.Plib
module Sock = Cl.Sock
module Srv = Mc_server.Server.Make (Vm.Sync) (Cl.T)
module Run = Ycsb.Runner.Make (Vm.Sync)
module CM = Platform.Cost_model

(* Run [f] as the main thread of a fresh simulation and hand back its
   result (wall-clock here is virtual). *)
let in_vm ?config f =
  let vm = Vm.create ?config () in
  let out = ref None in
  ignore (Vm.spawn vm ~name:"main" (fun () -> out := Some (f ())));
  Vm.run vm;
  match !out with
  | Some v -> v
  | None -> failwith "in_vm: main thread produced no result"

(* ---- Store builders --------------------------------------------------- *)

let fresh_names = Atomic.make 0

let fresh_name prefix =
  Printf.sprintf "%s-%d" prefix (Atomic.fetch_and_add fresh_names 1)

let store_cfg ~hashpower =
  { Mc_core.Store.default_config with hashpower; lock_count = 1024;
    lru_count = 64; stats_slots = 64 }

(* [optimistic] toggles the seqlock read path; [lock_count] overrides
   the stripe count (fewer stripes = more collisions — what the
   locked-vs-optimistic contention comparison needs). *)
let make_plib ?(optimistic = true) ?lock_count ~protection ~size ~hashpower ()
    =
  let owner = Simos.Process.make ~uid:1000 (fresh_name "memcached-bk") in
  let cfg = store_cfg ~hashpower in
  let cfg =
    { cfg with
      optimistic_reads = optimistic;
      lock_count = Option.value lock_count ~default:cfg.lock_count }
  in
  Plib.create ~protection ~store_cfg:cfg ~path:(fresh_name "/dev/shm/kv")
    ~size ~owner ()

let make_baseline_store ~mem_limit ~hashpower () =
  let arena = Mc_core.Private_memory.create ~limit:(2 * mem_limit) in
  let slab = Mc_core.Slab.create ~arena ~mem_limit in
  Srv.Store.create ~mem:arena ~alloc:slab
    { (store_cfg ~hashpower) with lru_by_size_class = true }

(* ---- YCSB adapters ------------------------------------------------------ *)

(* Both adapters charge the YCSB driver's own per-op cost, as the
   paper's Java harness pays it regardless of backend. *)

let plib_db plib : Ycsb.Runner.db =
  { db_read =
      (fun k ->
        S.advance CM.current.ycsb_driver;
        Plib.get plib k <> None);
    db_update =
      (fun k v ->
        S.advance CM.current.ycsb_driver;
        Plib.set plib k v = Mc_core.Store.Stored) }

let sock_db conn : Ycsb.Runner.db =
  { db_read =
      (fun k ->
        S.advance CM.current.ycsb_driver;
        Sock.get conn k <> None);
    db_update =
      (fun k v ->
        S.advance CM.current.ycsb_driver;
        Sock.set conn k v = Mc_core.Store.Stored) }

(* Batched adapters (the batch plane): the whole batch is one driver
   dispatch — a batched YCSB driver assembles the op vector and issues
   a single call — so the driver cost, like the crossing cost, is paid
   once per batch. *)

let batch_db run : Ycsb.Runner.batch_db =
  let module P = Mc_protocol.Types in
  { b_run =
      (fun ops ->
        S.advance CM.current.ycsb_driver;
        let cmds =
          List.map
            (function
              | Ycsb.Workload.Read k -> P.Gets [ k ]
              | Ycsb.Workload.Update (k, v) ->
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
          (run cmds)) }

(* One crossing per batch on the protected library, one pipelined
   round trip over a socket. *)
let plib_batch_db plib = batch_db (Plib.batch plib)

let sock_batch_db conn = batch_db (Sock.pipeline conn)

(* Open-loop adapter: requests stream out through the split
   submit/await plane (over either transport; with ring mode the
   submit is a shared-memory produce), completions parse back in
   submission order. *)
let sock_open_db conn : Ycsb.Runner.open_db =
  let module P = Mc_protocol.Types in
  let st = Sock.stream conn in
  let inflight = Queue.create () in
  { o_submit =
      (fun op ->
        S.advance CM.current.ycsb_driver;
        let cmd =
          match op with
          | Ycsb.Workload.Read k -> P.Gets [ k ]
          | Ycsb.Workload.Update (k, v) ->
            P.Set { P.key = k; flags = 0; exptime = 0; data = v;
                    noreply = false }
        in
        Queue.push cmd inflight;
        Sock.submit st cmd);
    o_await =
      (fun () ->
        let cmd = Queue.pop inflight in
        match Sock.await st cmd with
        | P.Values { vals; _ } -> vals <> []
        | P.Stored -> true
        | _ -> false) }

(* Load the dataset straight into a store object (the load phase is
   not part of any measurement). *)
let load_plib plib w =
  in_vm (fun () ->
    Run.load w
      { db_read = (fun k -> Plib.get plib k <> None);
        db_update = (fun k v -> Plib.set plib k v = Mc_core.Store.Stored) })

let load_baseline store w =
  in_vm (fun () ->
    Run.load w
      { db_read = (fun k -> Srv.Store.get store k <> None);
        db_update =
          (fun k v -> Srv.Store.set store k v = Mc_core.Store.Stored) })

(* ---- Throughput measurement points ---------------------------------------- *)

let baseline_point ~store ~workers ~threads (w : Ycsb.Workload.t) =
  let name = fresh_name "mc" in
  in_vm (fun () ->
    let cfg =
      { Mc_server.Server.default_config with workers;
        store = { (store_cfg ~hashpower:16) with lru_by_size_class = true } }
    in
    let srv = Srv.start ~cfg ~prebuilt:store ~name () in
    let conns = Array.init threads (fun _ -> Sock.connect ~name ()) in
    let res = Run.run ~threads w ~db_for:(fun i -> sock_db conns.(i)) in
    Srv.stop srv;
    res)

let plib_point ~plib ~threads (w : Ycsb.Workload.t) =
  in_vm (fun () -> Run.run ~threads w ~db_for:(fun _ -> plib_db plib))

(* The batch-plane point: B ops per crossing. [batch = 1] degenerates
   to the one-op path's crossing count (every op still goes through
   [call_batch], so crossings/op stays measurable as 1/B). *)
let plib_batch_point ~plib ~threads ~batch (w : Ycsb.Workload.t) =
  in_vm (fun () ->
    Run.run_batched ~threads ~batch w ~db_for:(fun _ -> plib_batch_db plib))

(* ---- Output helpers ----------------------------------------------------------- *)

let us ns = float_of_int ns /. 1e3

let pf = Printf.printf

let header title =
  pf "\n================================================================\n";
  pf "%s\n" title;
  pf "================================================================\n"

(* ---- Machine-readable results (bench.json) ----------------------------

   Each bench target reports its headline numbers here as well as to
   stdout; the driver flushes them as a JSON array of
   {run, metric, value, unit} rows — the bench.json CI artifact, so a
   dashboard (or a later regression gate) never has to scrape the
   human tables. *)

let results : (string * string * float * string) list ref = ref []

let note ~run ~metric ?(unit_ = "ns") value =
  results := (run, metric, value, unit_) :: !results

let note_i ~run ~metric ?unit_ v = note ~run ~metric ?unit_ (float_of_int v)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let write_json path =
  let rows = List.rev !results in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (run, metric, v, u) ->
      Printf.fprintf oc
        "  {\"run\": %s, \"metric\": %s, \"value\": %s, \"unit\": %s}%s\n"
        (json_string run) (json_string metric) (json_number v) (json_string u)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  pf "\nwrote %d result row(s) to %s\n" (List.length rows) path
