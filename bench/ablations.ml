(** Ablations of the design choices §3.2 and §2 call out:

    - abl1: a single LRU list vs the hash-chosen multi-LRU ("we tried
      putting all items into a single list, but this caused
      unacceptable lock contention at high thread counts"), under
      both move disciplines: memcached's rate-limited moves and a
      move on every access;
    - abl2: one statistics lock vs scattering statistics over the
      slots of a shared array;
    - abl3: trampoline-level copying of all arguments vs the manual
      copy-in of only security-sensitive ones (Figure 4). *)

open Scenarios

let threads_list = [ 1; 4; 8; 16; 24; 40 ]

let ops = 20_000

let workload () =
  Ycsb.Workload.make ~name:"ablation" ~record_count:100_000
    ~operation_count:ops ~read_proportion:0.5 ~field_length:128 ()

(* One row: KTPS at each thread count, which it also returns. *)
let sweep ~label plib =
  let w = workload () in
  load_plib plib w;
  pf "%-34s" label;
  let row =
    List.map
      (fun threads ->
        let ktps = Ycsb.Runner.throughput_ktps (plib_point ~plib ~threads w) in
        pf " %8.0f" ktps;
        note ~run:"ablations"
          ~metric:(Printf.sprintf "%s_t%d" label threads)
          ~unit_:"ktps" ktps;
        ktps)
      threads_list
  in
  pf "\n";
  row

let custom_plib_locks ~lock_count () =
  let owner = Simos.Process.make ~uid:1000 (fresh_name "bk-locks") in
  Plib.create
    ~store_cfg:{ (store_cfg ~hashpower:17) with lock_count }
    ~path:(fresh_name "/dev/shm/locks") ~size:(128 lsl 20) ~owner ()

let custom_plib
    ?(bump_interval_s = Mc_core.Store.default_config.bump_interval_s)
    ~lru_count ~single_stats_lock () =
  let owner = Simos.Process.make ~uid:1000 (fresh_name "bk-abl") in
  Plib.create
    ~store_cfg:
      { (store_cfg ~hashpower:17) with
        lru_count = (if lru_count = 0 then 64 else lru_count);
        single_stats_lock; bump_interval_s }
    ~path:(fresh_name "/dev/shm/abl") ~size:(128 lsl 20) ~owner ()

(* Under rate-limited moves (the default) a hot item takes the LRU lock
   about once per [bump_interval_s], so one list barely matters; moving
   on every access ([bump_interval_s = 0]) puts every get and set on
   the list lock, the discipline under which the paper found one list
   contended. *)
let run_lru () =
  header "Ablation abl1: single LRU list vs hash-chosen multi-LRU (KTPS)";
  pf "%-34s" "config \\ threads";
  List.iter (fun t -> pf " %8d" t) threads_list;
  pf "\n";
  let at_top ~bump_interval_s ~label lru_count =
    let row =
      sweep ~label
        (custom_plib ~bump_interval_s ~lru_count ~single_stats_lock:false ())
    in
    List.nth row (List.length row - 1)
  in
  let bump = Mc_core.Store.default_config.bump_interval_s in
  let many =
    at_top ~bump_interval_s:bump ~label:"lru_lists = 64 (paper's design)" 64
  in
  let one =
    at_top ~bump_interval_s:bump ~label:"lru_lists = 1 (rejected design)" 1
  in
  let many0 =
    at_top ~bump_interval_s:0 ~label:"lru_lists = 64, move every access" 64
  in
  let one0 =
    at_top ~bump_interval_s:0 ~label:"lru_lists = 1, move every access" 1
  in
  let top = List.nth threads_list (List.length threads_list - 1) in
  pf "one list costs %.0f%% at %d threads with rate-limited moves\n"
    (100.0 *. (1.0 -. (one /. many))) top;
  pf "one list costs %.0f%% at %d threads with a move on every access\n"
    (100.0 *. (1.0 -. (one0 /. many0))) top

let run_stats () =
  header "Ablation abl2: scattered statistics vs one stats lock (KTPS)";
  pf "%-34s" "config \\ threads";
  List.iter (fun t -> pf " %8d" t) threads_list;
  pf "\n";
  ignore
    (sweep ~label:"scattered slots (paper's design)"
       (custom_plib ~lru_count:64 ~single_stats_lock:false ()));
  ignore
    (sweep ~label:"single stats lock (rejected)"
       (custom_plib ~lru_count:64 ~single_stats_lock:true ()))

(* The paper: "the overall system bottleneck becomes the
   synchronization employed in hash table critical sections" (§4.1).
   Sweep the item-lock stripe count, down to one global lock (early
   memcached's cache_lock). *)
let run_lock_striping () =
  header "Ablation abl4: item-lock striping (KTPS)";
  pf "%-34s" "config \\ threads";
  List.iter (fun t -> pf " %8d" t) threads_list;
  pf "\n";
  List.iter
    (fun lock_count ->
      ignore
        (sweep
           ~label:(Printf.sprintf "lock stripes = %d%s" lock_count
                     (if lock_count = 1024 then " (paper's design)"
                      else if lock_count = 1 then " (global lock)"
                      else ""))
           (custom_plib_locks ~lock_count ())))
    [ 1024; 16; 1 ]

let run_argcopy () =
  header "Ablation abl3: trampoline arg copying vs manual copy-in (us/op)";
  let measure ~copy_args =
    let owner = Simos.Process.make ~uid:1000 (fresh_name "bk-copy") in
    let plib =
      Plib.create ~copy_args ~store_cfg:(store_cfg ~hashpower:14)
        ~path:(fresh_name "/dev/shm/copy") ~size:(64 lsl 20) ~owner ()
    in
    in_vm (fun () ->
      ignore (Plib.set plib "key" (String.make 128 'v'));
      let iters = 500 in
      let key = Bytes.of_string "key" in
      let data = Bytes.make (5 * 1024) 'v' in
      let t0 = S.now_ns () in
      for _ = 1 to iters do
        (* exercise the raw bytes interface, where copying matters *)
        ignore (Plib.set_raw plib key data);
        ignore (Plib.get_raw plib key)
      done;
      (S.now_ns () - t0) / iters)
  in
  let manual = measure ~copy_args:false in
  let auto = measure ~copy_args:true in
  pf "manual copy-in of key only (paper): %6.2f us per set5KB+get\n" (us manual);
  pf "trampoline copies every argument:   %6.2f us per set5KB+get (+%.0f%%)\n"
    (us auto)
    (100.0 *. (float_of_int (auto - manual) /. float_of_int manual));
  note_i ~run:"ablations" ~metric:"argcopy_manual" manual;
  note_i ~run:"ablations" ~metric:"argcopy_trampoline" auto

let run () =
  run_lru ();
  run_stats ();
  run_lock_striping ();
  run_argcopy ()
