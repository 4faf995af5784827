(** The five workloads.

    Each one builds its store, loads it to steady state, then runs its
    measured phase in a fresh Vm, on one OS thread (Vm threads are
    fibers). Clients have zero think time and the benchmark charges no
    client-side cost of its own, so virtual time is the system's alone.
    Every workload reports the same end-to-end rows; a traced run adds
    the per-layer rows, read from the telemetry the program already
    keeps. *)

module S = Vm.Sync
module Cl = Core.Client.Make (Vm.Sync)
module Plib = Cl.Plib
module Sock = Cl.Sock
module P = Mc_protocol.Types
module TC = Telemetry.Counters
module M = Metrics

type cfg = {
  seed : int;
  scale : float;  (** multiplies key and op counts; 1.0 is the benchmark *)
  traced : bool;
}

let scaled cfg n = max 16 (int_of_float (float_of_int n *. cfg.scale))

(* ---- Samples and the per-run tally ------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Host CPU time of a phase, cut into 20 equal slices of units (ops or
   sets). Other processes on the machine only ever add CPU time to
   ours, and they come and go within a run; the slices they miss keep
   the program's own cost. So a phase is costed at its 10th-percentile
   slice, where the median would follow the neighbours' load. *)
module Clock = struct
  type t = {
    per : int;  (** units per slice *)
    mutable n : int;
    mutable marks : float list;  (** start, then each slice end; newest first *)
  }

  let create ~units = { per = max 1 (units / 20); n = 0; marks = [] }

  (* Units ticked before the latest start are not timed. *)
  let start c =
    c.n <- 0;
    c.marks <- [ Sys.time () ]

  let tick c =
    c.n <- c.n + 1;
    if c.n mod c.per = 0 then c.marks <- Sys.time () :: c.marks

  (* CPU seconds of each whole slice, oldest first. *)
  let durations c =
    let rec go prev = function [] -> [] | m :: rest -> (m -. prev) :: go m rest in
    match List.rev c.marks with [] -> [] | start :: ends -> go start ends
end

type tally = {
  get_lat : Samples.t;  (** virtual ns per get *)
  set_lat : Samples.t;
  mutable ops : int;
  mutable gets : int;
  mutable hits : int;
  mutable sets : int;
  mutable failed : int;
  mutable wrong : int;
  mutable errors : string list;
  mutable client_span_ns : int;  (** summed duration of every perf.* root *)
  mutable lat_ns : int;  (** summed latency of every op, as the generator timed it *)
  mutable stream : int;  (** running hash of the op stream *)
  clock : Clock.t;  (** host time of the measured ops *)
}

(* [timed] is how many ops the host clock times. *)
let tally ~timed =
  { get_lat = Samples.create (); set_lat = Samples.create (); ops = 0;
    gets = 0; hits = 0; sets = 0; failed = 0; wrong = 0; errors = [];
    client_span_ns = 0; lat_ns = 0; stream = 0; clock = Clock.create ~units:timed }

let note_error t msg =
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let fail t msg =
  t.failed <- t.failed + 1;
  note_error t msg

let note_op t op ~tenant ~k =
  let tag = match op with Gen.Get -> 1 | Gen.Set -> 2 | Gen.Delete -> 3 in
  t.stream <- ((t.stream * 31) + (k * 4) + tag + (tenant lsl 40)) land max_int

(* Each call the benchmark makes runs under a [perf.<op>] ingress
   span, so the program's own phases nest under it in a traced run
   (with telemetry off the ingress is a no-op). *)
let span t name f =
  let t0 = S.now_ns () in
  let root = Telemetry.Span.ingress ~op:name () in
  match f () with
  | v ->
    Telemetry.Span.finish root;
    let dt = S.now_ns () - t0 in
    t.client_span_ns <- t.client_span_ns + dt;
    (v, dt)
  | exception e ->
    Telemetry.Span.drop root;
    raise e

(* ---- Front ends --------------------------------------------------------- *)

type front = {
  f_get : string -> string option;
  f_set : string -> string -> bool;
  f_delete : string -> unit;
}

let value_of = Option.map (fun (r : Mc_core.Store.get_result) -> r.value)

let plib_front p =
  { f_get = (fun k -> value_of (Plib.get p k));
    f_set = (fun k v -> Plib.set p k v = Mc_core.Store.Stored);
    f_delete = (fun k -> ignore (Plib.delete p k)) }

let tenant_front p slot =
  { f_get = (fun k -> value_of (Plib.tenant_get p slot k));
    f_set = (fun k v -> Plib.tenant_set p slot k v = Mc_core.Store.Stored);
    f_delete = (fun k -> ignore (Plib.tenant_delete p slot k)) }

let sock_front c =
  { f_get = (fun k -> value_of (Sock.get c k));
    f_set = (fun k v -> Sock.set c k v = Mc_core.Store.Stored);
    f_delete = (fun k -> ignore (Sock.delete c k)) }

(* Account one get reply taking [dt] virtual ns, into latency sample
   [lat]. A miss is an outcome, not a failure; wrong bytes are a
   correctness failure of the run. *)
let got t o ~lat ~tenant ~k dt v =
  t.gets <- t.gets + 1;
  t.lat_ns <- t.lat_ns + dt;
  Samples.add lat dt;
  match v with
  | Some v ->
    t.hits <- t.hits + 1;
    if not (Gen.check o ~tenant ~k v) then begin
      t.wrong <- t.wrong + 1;
      note_error t (Printf.sprintf "wrong bytes for tenant %d %s" tenant (Gen.key k))
    end
  | None -> ()

(* Account one set that was stored. *)
let stored t ~lat dt =
  t.sets <- t.sets + 1;
  t.lat_ns <- t.lat_ns + dt;
  Samples.add lat dt

(* One closed-loop operation: issue, time, and check the reply. *)
let run_op t o front ~tenant ~k op =
  let key = Gen.key k in
  t.ops <- t.ops + 1;
  note_op t op ~tenant ~k;
  (match op with
   | Gen.Get -> (
     match span t "perf.get" (fun () -> front.f_get key) with
     | v, dt -> got t o ~lat:t.get_lat ~tenant ~k dt v
     | exception e -> fail t (Printexc.to_string e))
   | Gen.Set -> (
     let v = Gen.write o ~tenant ~k in
     match span t "perf.set" (fun () -> front.f_set key v) with
     | true, dt -> stored t ~lat:t.set_lat dt
     | false, _ -> fail t (Printf.sprintf "set %s not stored" key)
     | exception e -> fail t (Printexc.to_string e))
   | Gen.Delete -> (
     match span t "perf.delete" (fun () -> front.f_delete key) with
     | (), dt -> t.lat_ns <- t.lat_ns + dt
     | exception e -> fail t (Printexc.to_string e)));
  Clock.tick t.clock

(* [clients] closed-loop clients; returns the phase's virtual length. *)
let closed_loop ~clients body =
  let t0 = S.now_ns () in
  let ths =
    List.init clients (fun c ->
      S.spawn ~name:(Printf.sprintf "perf-client-%d" c) (fun () -> body c))
  in
  List.iter S.join ths;
  S.now_ns () - t0

(* ---- Store and simulation plumbing --------------------------------------- *)

let in_vm f =
  let vm = Vm.create () in
  let out = ref None in
  ignore (Vm.spawn vm ~name:"main" (fun () -> out := Some (f vm)));
  Vm.run vm;
  (Option.get !out, vm)

let rec log2ceil n = if n <= 1 then 0 else 1 + log2ceil ((n + 1) / 2)

let make_plib ~name ~size ~keys =
  let owner = Simos.Process.make ~uid:1000 ("perf-bk-" ^ name) in
  let store_cfg =
    { Mc_core.Store.default_config with hashpower = max 10 (log2ceil keys) }
  in
  Plib.create ~protection:Plib.Protected ~store_cfg ~path:("/dev/shm/perf-" ^ name)
    ~size ~owner ()

let tenant_evictions p =
  List.fold_left
    (fun acc (k, v) ->
      if String.ends_with ~suffix:":evictions" k then acc + int_of_string v
      else acc)
    0 (Plib.stats_tenants p)

(* ---- The measured phase ---------------------------------------------------- *)

(* Snapshot at the start of the measured phase. Telemetry is pinned
   here, in code: off for the end-to-end run, on (every trace
   sampled) for the traced run, and reset so the per-layer readout
   covers the measured phase alone. *)
type probe = {
  vm : Vm.t;
  host0 : float;
  events0 : int;
  vp0 : int * int * int;
  tev0 : int;
}

let vpkey_counts () = Pku.Vpkey.(binds (), slot_misses (), evictions ())

let start_measure cfg vm p (t : tally) =
  let tev0 = tenant_evictions p in
  if cfg.traced then begin
    TC.reset ();
    Telemetry.Span.reset ();
    Telemetry.Contention.reset ();
    Telemetry.Control.set_enabled true;
    Telemetry.Span.set_sampling 1
  end;
  Clock.start t.clock;
  { vm; host0 = Sys.time (); events0 = Vm.events_processed vm;
    vp0 = vpkey_counts (); tev0 }

type span_end = {
  host_s : float;  (** CPU seconds of the whole measured phase *)
  slices : float list;  (** CPU ns per op of each slice of the timed ops *)
  events : int;
  vp1 : int * int * int;
}

let end_measure pr (t : tally) =
  let host_s = Sys.time () -. pr.host0 in
  let slices =
    match Clock.durations t.clock with
    | [] -> [ host_s /. float_of_int (max 1 t.ops) ]
    | d -> List.map (fun d -> d /. float_of_int t.clock.per) d
  in
  { host_s; slices = List.map (fun s -> s *. 1e9) slices;
    events = Vm.events_processed pr.vm - pr.events0; vp1 = vpkey_counts () }

(* Wall-clock-free host timing: CPU nanoseconds per call. *)
let time_calls n f =
  let t0 = Sys.time () in
  for _ = 1 to n do
    f ()
  done;
  (Sys.time () -. t0) *. 1e9 /. float_of_int n

(* The codec layer's host cost: parse_batch and encode_batch on one
   8-request pipeline built from the workload's own keys and values. *)
let codec_host ~calls (codec : Mc_server.Server.protocol) pairs =
  let cmds = List.map fst pairs in
  let encode_cmd, parse_batch, encode_batch =
    match codec with
    | Mc_server.Server.Ascii ->
      Mc_protocol.Ascii.
        (encode_command, (fun s -> parse_batch s), encode_batch)
    | Mc_server.Server.Binary ->
      Mc_protocol.Binary.
        (encode_command, (fun s -> parse_batch s), encode_batch)
  in
  let wire = String.concat "" (List.map encode_cmd cmds) in
  let parsed, _ = parse_batch wire in
  if List.length parsed <> List.length cmds then
    failwith "codec pipeline did not parse back";
  ( time_calls calls (fun () -> ignore (parse_batch wire)),
    time_calls calls (fun () -> ignore (encode_batch pairs)) )

let pipeline o stream ~get =
  List.init 8 (fun _ ->
    let k = Gen.next_key stream in
    let key = Gen.key k in
    if Gen.next_float stream < get then
      let v = Gen.write o ~tenant:0 ~k in
      ( P.Gets [ key ],
        P.Values
          { with_cas = true;
            vals = [ { P.v_key = key; v_flags = 0; v_cas = 1L; v_data = v } ] } )
    else
      ( P.Set
          { P.key; flags = 0; exptime = 0; data = Gen.write o ~tenant:0 ~k;
            noreply = false },
        P.Stored ))

(* Everything a workload hands back to the row builder. *)
type outcome = {
  tally : tally;
  throughput_kops : float;  (** completed ops per virtual millisecond *)
  get_lat : int array;  (** sorted; the latencies the headline rows use *)
  set_lat : int array;
  extra : (string * string * M.clock * float * string) list;
  (** workload-specific end-to-end rows: metric, unit, clock, value, note *)
  space_amp : float;
  setup_s : float;
  measure : span_end;
  layers : M.row list;  (** traced runs only *)
  errors : string list;  (** correctness failures beyond the tally's *)
}

(* What the traced run's telemetry recorded, read as soon as the
   measured phase is over (servers stopped, so every trace is
   complete) and before anything else crosses into the library. *)
type telemetry = {
  phases : (string * Telemetry.Span.phase_stats) list;
  e2e : Telemetry.Span.phase_stats;
  counts : int array;  (** every [Counters] id *)
  acqs : int;  (** stripe acquisitions the contention profiler saw *)
}

let read_telemetry () =
  let _, acqs, _ = Telemetry.Contention.totals () in
  { phases = Telemetry.Span.phase_report (); e2e = Telemetry.Span.e2e_report ();
    counts = Array.init TC.Id.count TC.read; acqs }

let layer_rows ~workload ~calls ~pr ~(m : span_end) ~tel ~p ~t ~late_p99_ns
    ~codec ~sizes =
  let errors = ref [] in
  let phases = tel.phases and e2e = tel.e2e in
  let self ph =
    match List.assoc_opt ph phases with
    | Some s -> s.Telemetry.Span.p_self_ns
    | None -> 0
  in
  let sum = List.fold_left (fun a (_, s) -> a + s.Telemetry.Span.p_self_ns) 0 phases in
  if sum <> e2e.p_self_ns then
    errors :=
      Printf.sprintf "phase self-times sum to %d ns, root durations to %d ns"
        sum e2e.p_self_ns
      :: !errors;
  (* Server-side roots (srv.batch, srv.ring) are the traces the
     benchmark's own perf.* roots do not account for. *)
  let server_roots = e2e.p_self_ns - t.client_span_ns in
  let c id = tel.counts.(id) in
  let b0, m0, e0 = pr.vp0 and b1, m1, e1 = m.vp1 in
  let tev = tenant_evictions p - pr.tev0 in
  let heap = Shm.Region.kernel_mode (fun () -> Ralloc.heap_map (Plib.heap p)) in
  let mean_runnable = Vm.mean_runnable pr.vm in
  let host_call = time_calls calls (fun () -> Plib.enter p (fun () -> ())) in
  (* on a heap of its own: the workload's heap may be full *)
  let host_alloc =
    Shm.Region.kernel_mode (fun () ->
      let heap =
        Ralloc.create
          (Shm.Region.create ~name:"perf-alloc-probe" ~size:(4 lsl 20) ~pkey:0 ())
      in
      let n = Array.length sizes in
      let i = ref 0 in
      time_calls calls (fun () ->
        Ralloc.free heap (Ralloc.alloc heap sizes.(!i mod n));
        incr i))
  in
  let host_parse, host_encode =
    match codec with
    | Some (codec, pairs) -> codec_host ~calls codec pairs
    | None -> (0., 0.)
  in
  let fi = float_of_int in
  let per n x = if n = 0 then 0.0 else fi x /. fi n in
  let ops = t.ops and sets = t.sets and gets = t.gets in
  let opt_h = c TC.Id.opt_hits and opt_f = c TC.Id.opt_fallbacks in
  let drains = c TC.Id.ring_drains in
  let r ?origin metric unit_ clock v =
    M.row ?origin ~workload ~kind:M.Layer ~clock metric unit_ v
  in
  ( [ r "hodor.crossings_per_op" "count/op" M.Count (per ops (c TC.Id.hodor_enter));
      r "hodor.pkru_writes_per_op" "count/op" M.Count (per ops (c TC.Id.pkru_writes));
      r "hodor.crossing_self_ns_per_op" "ns/op" M.Virtual
        (per ops (self "crossing"));
      r "hodor.host_ns_per_call" "ns" M.Host host_call;
      r "mc_core.store.self_ns_per_op" "ns/op" M.Virtual (per ops (self "store"));
      r "mc_core.store.stripe_wait_ns_per_op" "ns/op" M.Virtual
        (per ops (self "stripe_wait"));
      r "mc_core.store.stripe_hold_ns_per_op" "ns/op" M.Virtual
        (per ops (self "stripe_hold"));
      r "mc_core.store.stripe_acqs_per_op" "count/op" M.Count (per ops tel.acqs);
      r "mc_core.store.opt_hit_ratio" "ratio" M.Count (per (opt_h + opt_f) opt_h);
      r "mc_core.store.opt_retries_per_kget" "count/kget" M.Count
        (1000.0 *. per gets (c TC.Id.opt_retries));
      r "mc_core.store.evictions_per_kset" "count/kset" M.Count
        (1000.0 *. per sets (c TC.Id.evictions));
      r "ralloc.alloc_self_ns_per_set" "ns/set" M.Virtual
        (per sets (self "alloc"));
      r "ralloc.free_self_ns_per_set" "ns/set" M.Virtual
        (per sets (self "free"));
      r "ralloc.alloc_calls_per_set" "count/set" M.Count
        (per sets (c TC.Id.alloc_calls));
      r "ralloc.alloc_bytes_per_set" "B/set" M.Count (per sets (c TC.Id.alloc_bytes));
      r "ralloc.ext_frag" "ratio" M.Count heap.Ralloc.hm_ext_frag;
      r "ralloc.host_ns_per_alloc_free" "ns" M.Host host_alloc;
      r "mc_core.tenant.evictions_per_kset" "count/kset" M.Count
        (1000.0 *. per sets tev);
      r "pku.vpkey_binds_per_op" "count/op" M.Count (per ops (b1 - b0));
      r "pku.vpkey_slot_miss_per_bind" "ratio" M.Count (per (b1 - b0) (m1 - m0));
      r "pku.vpkey_evictions_per_kop" "count/kop" M.Count
        (1000.0 *. per ops (e1 - e0));
      r ~origin:M.Calibrated "mc_protocol.parse_self_ns_per_op" "ns/op" M.Virtual
        (per ops (self "parse"));
      r "mc_protocol.host_ns_per_parse" "ns" M.Host host_parse;
      r "mc_protocol.host_ns_per_encode" "ns" M.Host host_encode;
      r "mc_server.queue_ns_per_op" "ns/op" M.Virtual (per ops (self "queue"));
      r "mc_server.exec_self_ns_per_op" "ns/op" M.Virtual (per ops (self "exec"));
      r "mc_server.group_self_ns_per_op" "ns/op" M.Virtual (per ops (self "group"));
      r "mc_server.reply_self_ns_per_op" "ns/op" M.Virtual (per ops (self "reply"));
      r "transport.ops_per_drain" "count" M.Count
        (per drains (c TC.Id.ring_drain_ops));
      r "transport.doorbells_per_op" "count/op" M.Count
        (per ops (c TC.Id.ring_doorbells));
      r "transport.full_waits_per_kop" "count/kop" M.Count
        (1000.0 *. per ops (c TC.Id.ring_full_waits));
      r "transport.client_ns_per_op" "ns/op" M.Virtual
        (if server_roots = 0 then 0.0 else per ops (t.lat_ns - server_roots));
      r "vm.events_per_op" "count/op" M.Count (per ops m.events);
      r "vm.host_ns_per_event" "ns" M.Host (m.host_s *. 1e9 /. fi (max 1 m.events));
      r "vm.mean_runnable" "count" M.Virtual mean_runnable;
      r "driver.late_p99_us" "us" M.Virtual (fi late_p99_ns /. 1e3) ],
    List.rev !errors )

(* Space used per byte of live user data, read once the phase is over. *)
let space_amp p =
  let live =
    Shm.Region.kernel_mode (fun () -> (Ralloc.heap_map (Plib.heap p)).hm_live_bytes)
  in
  let kv =
    Plib.fold_keys p (fun acc key ~nbytes ~exptime:_ -> acc + String.length key + nbytes) 0
  in
  float_of_int live /. float_of_int (max 1 kv)

(* The closing steps every workload shares: stop measuring, read the
   traced layers, measure space. [stop] tears down servers first so
   every server-side trace is complete before the readout. *)
let finish ~workload ~cfg ~pr ~p ~t ~elapsed_ns ?throughput_kops ~setup_s
    ?(late_p99_ns = 0) ?codec ?(extra = []) ?(stop = fun () -> ()) ~sizes
    ~get_lat ~set_lat () =
  let m = end_measure pr t in
  stop ();
  let tel = if cfg.traced then Some (read_telemetry ()) else None in
  Telemetry.Control.set_enabled false;
  Telemetry.Span.set_sampling 0;
  let space_amp = space_amp p in
  let layers, errors =
    match tel with
    | Some tel ->
      (* host per-call costs: 100k direct calls into each layer *)
      layer_rows ~workload ~calls:(scaled cfg 100_000) ~pr ~m ~tel ~p ~t
        ~late_p99_ns ~codec ~sizes
    | None -> ([], [])
  in
  let throughput_kops =
    match throughput_kops with
    | Some v -> v
    | None -> float_of_int t.ops *. 1e6 /. float_of_int (max 1 elapsed_ns)
  in
  { tally = t; throughput_kops; get_lat; set_lat; extra; space_amp;
    setup_s; measure = m; layers; errors }

(* ---- Set-up ------------------------------------------------------------------ *)

(* Set-up is store creation, the load phase and server start, in CPU
   seconds since [h0]. The load is nine tenths of it and runs on a
   [Clock] of its own, each whole slice costed at the 10th-percentile
   slice, so interference from other processes moves setup_s little.
   The rest is taken as measured. *)
let setup_seconds ~h0 load_clock =
  let elapsed = Sys.time () -. h0 in
  match Clock.durations load_clock with
  | [] -> elapsed
  | d ->
    elapsed -. List.fold_left ( +. ) 0.0 d
    +. (float_of_int (List.length d) *. M.fpercentile d 10.0)

let load clock o front ~tenant ~keys =
  for k = 0 to keys - 1 do
    if not (front.f_set (Gen.key k) (Gen.write o ~tenant ~k)) then
      failwith (Printf.sprintf "load: tenant %d key %d not stored" tenant k);
    Clock.tick clock
  done

(* ---- lib-read and lib-evict ----------------------------------------------------- *)

(* Closed-loop clients on the Plib scalar API; the two workloads differ
   only in shape. *)
let plib_scalar cfg ~workload ~salt ~keys ~ops ~clients ~heap ~size ~sizes ~dist
    ~get =
  let o = Gen.oracle ~seed:cfg.seed ~tenants:1 ~keys ~size in
  let streams =
    Array.init clients (fun client -> Gen.stream ~seed:cfg.seed ~salt ~client dist)
  in
  let t = tally ~timed:ops in
  let h0 = Sys.time () and lc = Clock.create ~units:keys in
  let p = make_plib ~name:workload ~size:heap ~keys in
  let front = plib_front p in
  ignore (in_vm (fun _ -> Clock.start lc; load lc o front ~tenant:0 ~keys));
  fst
    (in_vm (fun vm ->
       let setup_s = setup_seconds ~h0 lc in
       let pr = start_measure cfg vm p t in
       let elapsed_ns =
         closed_loop ~clients (fun c ->
           let st = streams.(c) in
           for _ = 1 to ops / clients do
             let op = Gen.next_op st ~get ~set:(1.0 -. get) in
             run_op t o front ~tenant:0 ~k:(Gen.next_key st) op
           done)
       in
       finish ~workload ~cfg ~pr ~p ~t ~elapsed_ns ~setup_s ~sizes
         ~get_lat:(Samples.sorted t.get_lat) ~set_lat:(Samples.sorted t.set_lat) ()))

(* The paper's headline path: one crossing plus an optimistic lookup
   per op; transport, parsing and allocation nearly absent. The
   dataset fits the heap. *)
let lib_read cfg =
  let keys = scaled cfg 100_000 in
  plib_scalar cfg ~workload:"lib-read" ~salt:1 ~keys ~ops:(scaled cfg 200_000)
    ~clients:8 ~heap:(64 lsl 20)
    ~size:(fun ~k:_ ~ver:_ -> 128)
    ~sizes:[| 128 |] ~dist:(Gen.Zipf (Ycsb.Zipfian.create keys)) ~get:0.95

(* Writes as often as reads over a dataset twice the heap: size-class
   allocation, eviction and stripe locks carry the cost. Keys are
   uniform, so every item is as likely to be wanted again and the
   working set is the whole dataset.

   A set that finds its size class full evicts from LRU cold ends (up
   to 80 items) until a block of its own class frees up. The three
   classes therefore take exactly a third of the keys each (the seed
   picks which), so that pass always finds one; with a 60/30/10 mix the
   6 KB class starves and some seeds fail sets with No_memory. The
   small class stays above the bump arena's 512 B cut for the same
   reason (see perf/README.md). *)
let lib_evict cfg =
  let keys = scaled cfg 24_000 in
  let shift = Gen.hash cfg.seed 0 0 in
  plib_scalar cfg ~workload:"lib-evict" ~salt:2 ~keys ~ops:(scaled cfg 200_000)
    ~clients:4 ~heap:(32 lsl 20)
    ~size:(fun ~k ~ver:_ ->
      match (k + shift) mod 3 with 0 -> 600 | 1 -> 1536 | _ -> 6144)
    ~sizes:[| 600; 1536; 6144 |] ~dist:(Gen.Uniform keys) ~get:0.5

(* ---- ring-open ------------------------------------------------------------------ *)

(* Independent clients on a schedule: an open loop over shared-ring
   connections, stepped up an offered-rate ladder. Latency is timed
   from each request's due time, so a stall charges every request
   queued behind it. *)
let rates_kops = [ 200; 400; 800; 1200; 1600; 2000; 2400 ]

let slo_p999_ns = 50_000

type rung = {
  rate : int;
  achieved_kops : float;
  p999_ns : int;  (** over every request of the rung *)
  r_get : int array;
  r_set : int array;
  r_failed : int;
}

(* One rung of the ladder. Only the [timed] rung drives the host clock,
   so host_ns_per_op is the cost of one offered rate, not a mix of
   rungs whose per-op host costs differ. *)
let open_rung t o conns streams ~late ~rate ~requests ~timed =
  let nc = Array.length conns in
  let per = requests / nc in
  let interval = 1_000_000 * nc / rate in
  if timed then Clock.start t.clock;
  let t0 = S.now_ns () in
  let last = ref t0 in
  let all = Samples.create () and gl = Samples.create () and sl = Samples.create () in
  let failed0 = t.failed in
  let conn_body c conn =
    let st = Sock.stream conn in
    let q = S.chan () in
    let submitter =
      S.spawn ~name:(Printf.sprintf "perf-submit-%d" c) (fun () ->
        for i = 0 to per - 1 do
          let op = Gen.next_op streams.(c) ~get:0.9 ~set:0.1 in
          let k = Gen.next_key streams.(c) in
          let key = Gen.key k in
          let cmd =
            match op with
            | Gen.Get | Gen.Delete -> P.Gets [ key ]
            | Gen.Set ->
              P.Set
                { P.key; flags = 0; exptime = 0; data = Gen.write o ~tenant:0 ~k;
                  noreply = false }
          in
          let due = t0 + (c * interval / nc) + (i * interval) in
          let now = S.now_ns () in
          if now < due then S.sleep_ns (due - now);
          Samples.add late (S.now_ns () - due);
          S.send q (due, op, k, cmd);
          ignore (span t "perf.submit" (fun () -> Sock.submit st cmd))
        done;
        S.close q)
    in
    let rec collect () =
      match S.recv q with
      | exception S.Closed -> ()
      | due, op, k, cmd ->
        let resp, _ = span t "perf.await" (fun () -> Sock.await st cmd) in
        let dt = S.now_ns () - due in
        t.ops <- t.ops + 1;
        note_op t op ~tenant:0 ~k;
        Samples.add all dt;
        (match (op, resp) with
         | (Gen.Get | Gen.Delete), P.Values { vals; _ } ->
           got t o ~lat:gl ~tenant:0 ~k dt
             (match vals with v :: _ -> Some v.P.v_data | [] -> None)
         | Gen.Set, P.Stored -> stored t ~lat:sl dt
         | _, r ->
           fail t ("error reply " ^ String.escaped (Mc_protocol.Ascii.encode_response r)));
        if timed then Clock.tick t.clock;
        if S.now_ns () > !last then last := S.now_ns ();
        collect ()
    in
    collect ();
    S.join submitter
  in
  let ths =
    Array.to_list
      (Array.mapi
         (fun c conn ->
           S.spawn ~name:(Printf.sprintf "perf-open-%d" c) (fun () -> conn_body c conn))
         conns)
  in
  List.iter S.join ths;
  let all = Samples.sorted all in
  { rate;
    achieved_kops = float_of_int (per * nc) *. 1e6 /. float_of_int (max 1 (!last - t0));
    p999_ns = M.percentile all 99.9; r_get = Samples.sorted gl;
    r_set = Samples.sorted sl; r_failed = t.failed - failed0 }

let ring_open cfg =
  let workload = "ring-open" in
  let keys = scaled cfg 100_000 and conns_n = 4 in
  (* the 800 kops rung carries the latency rows and the host time, and
     needs 10k sets for a p99.9; the others only decide the SLO climb *)
  let rated = 800 in
  let requests rate = scaled cfg (if rate = rated then 100_000 else 10_000) in
  let size ~k:_ ~ver:_ = 128 in
  let o = Gen.oracle ~seed:cfg.seed ~tenants:1 ~keys ~size in
  let dist = Gen.Zipf (Ycsb.Zipfian.create keys) in
  let streams =
    Array.init conns_n (fun client -> Gen.stream ~seed:cfg.seed ~salt:3 ~client dist)
  in
  let t = tally ~timed:(requests rated) in
  let h0 = Sys.time () and lc = Clock.create ~units:keys in
  let p = make_plib ~name:workload ~size:(64 lsl 20) ~keys in
  ignore (in_vm (fun _ -> Clock.start lc; load lc o (plib_front p) ~tenant:0 ~keys));
  fst
    (in_vm (fun vm ->
       let srv =
         Plib.serve_remote ~rings:Mc_server.Server.default_ring_config p
           ~name:"perf-ring-open"
       in
       let conns = Array.init conns_n (fun _ -> Sock.connect ~name:"perf-ring-open" ()) in
       let setup_s = setup_seconds ~h0 lc in
       let pr = start_measure cfg vm p t in
       let late = Samples.create () in
       let t0 = S.now_ns () in
       let ladder =
         List.map
           (fun rate ->
             open_rung t o conns streams ~late ~rate ~requests:(requests rate)
               ~timed:(rate = rated))
           rates_kops
       in
       let elapsed_ns = S.now_ns () - t0 in
       let at rate = List.find (fun r -> r.rate = rate) ladder in
       (* counted upward from the bottom: the first rung that misses
          the SLO ends the climb *)
       let max_at_slo =
         let rec climb best = function
           | [] -> best
           | r :: rest ->
             if
               r.r_failed = 0 && r.p999_ns <= slo_p999_ns
               && r.achieved_kops >= 0.98 *. float_of_int r.rate
             then climb r.rate rest
             else best
         in
         climb 0 ladder
       in
       let idle = (at 200).r_get in
       let extra =
         ( "max_kops_at_slo", "kops", M.Virtual, float_of_int max_at_slo,
           Printf.sprintf "p99.9 <= %d us and achieved >= 0.98 x offered"
             (slo_p999_ns / 1000) )
         :: ( "idle_get_p50_us", "us", M.Virtual,
              float_of_int (M.percentile idle 50.0) /. 1e3,
              Printf.sprintf "at 200 kops, n=%d" (Array.length idle) )
         :: List.concat_map
              (fun r ->
                [ ( Printf.sprintf "ladder.rate%d.achieved_kops" r.rate, "kops",
                    M.Virtual, r.achieved_kops, "" );
                  ( Printf.sprintf "ladder.rate%d.p999_us" r.rate, "us", M.Virtual,
                    float_of_int r.p999_ns /. 1e3, "" ) ])
              ladder
       in
       let codec = (Mc_server.Server.Binary, pipeline o streams.(0) ~get:0.9) in
       finish ~workload ~cfg ~pr ~p ~t ~elapsed_ns
         ~throughput_kops:(at 2400).achieved_kops ~setup_s ~extra ~codec
         ~late_p99_ns:(M.percentile (Samples.sorted late) 99.0)
         ~stop:(fun () -> Plib.stop_remote srv)
         ~sizes:[| 128 |] ~get_lat:(at rated).r_get ~set_lat:(at rated).r_set ()))

(* ---- socket-tenants ----------------------------------------------------------- *)

(* The socket baseline path with tenants: ASCII parse and encode,
   worker queues, and the executor's tenant-local quota eviction. The
   crossing is a small share of each op here. *)
let socket_tenants cfg =
  let workload = "socket-tenants" in
  let tenants = 8 and keys = scaled cfg 4_000 and ops = scaled cfg 80_000 in
  let size ~k ~ver = 128 + (Gen.hash cfg.seed k ver mod 897) in
  let o = Gen.oracle ~seed:cfg.seed ~tenants ~keys ~size in
  let dist = Gen.Zipf (Ycsb.Zipfian.create keys) in
  let streams =
    Array.init tenants (fun client -> Gen.stream ~seed:cfg.seed ~salt:4 ~client dist)
  in
  let t = tally ~timed:ops in
  let h0 = Sys.time () and lc = Clock.create ~units:(tenants * keys) in
  let p = make_plib ~name:workload ~size:(32 lsl 20) ~keys:(tenants * keys) in
  (* half of each tenant's key set: 576 B mean value, ~16 B scoped key *)
  let byte_quota = keys * (576 + 16) / 2 in
  let names = Array.init tenants (Printf.sprintf "t%d") in
  ignore
    (in_vm (fun _ ->
       Clock.start lc;
       Array.iteri
         (fun i name ->
           let slot = Plib.create_tenant p ~name ~uid:(2000 + i) ~byte_quota () in
           load lc o (tenant_front p slot) ~tenant:i ~keys)
         names));
  fst
    (in_vm (fun vm ->
       let next = ref 0 in
       let assign _cid =
         let i = !next in
         incr next;
         if i < tenants then Some names.(i) else None
       in
       let srv =
         Plib.serve_remote
           ~cfg:{ Mc_server.Server.default_config with protocol = Mc_server.Server.Ascii }
           ~assign_tenant:assign p ~name:"perf-socket-tenants"
       in
       let conns =
         Array.init tenants (fun _ ->
           Sock.connect ~protocol:Sock.Ascii ~name:"perf-socket-tenants" ())
       in
       let setup_s = setup_seconds ~h0 lc in
       let pr = start_measure cfg vm p t in
       let elapsed_ns =
         closed_loop ~clients:tenants (fun c ->
           let st = streams.(c) and front = sock_front conns.(c) in
           for _ = 1 to ops / tenants do
             let op = Gen.next_op st ~get:0.75 ~set:0.20 in
             run_op t o front ~tenant:c ~k:(Gen.next_key st) op
           done)
       in
       let codec =
         ( Mc_server.Server.Ascii,
           pipeline (Gen.oracle ~seed:cfg.seed ~tenants:1 ~keys ~size) streams.(0)
             ~get:0.75 )
       in
       finish ~workload ~cfg ~pr ~p ~t ~elapsed_ns ~setup_s ~codec
         ~stop:(fun () -> Plib.stop_remote srv)
         ~sizes:[| 256; 576; 1024 |] ~get_lat:(Samples.sorted t.get_lat)
         ~set_lat:(Samples.sorted t.set_lat) ()))

(* ---- lib-tenants -------------------------------------------------------------- *)

(* More tenants than hardware pkey slots, visited in skewed bursts:
   vkey binds, slot misses and re-tags, and the library's own quota
   path. No transport. *)
let lib_tenants cfg =
  let workload = "lib-tenants" in
  let tenants = 16 and keys = scaled cfg 2_000 and ops = scaled cfg 200_000 in
  let clients = 2 and burst = 64 and hot = 4 in
  let size ~k ~ver = 64 + (Gen.hash cfg.seed k ver mod 193) in
  let o = Gen.oracle ~seed:cfg.seed ~tenants ~keys ~size in
  let dist = Gen.Zipf (Ycsb.Zipfian.create keys) in
  let streams =
    Array.init clients (fun client -> Gen.stream ~seed:cfg.seed ~salt:5 ~client dist)
  in
  let t = tally ~timed:ops in
  let h0 = Sys.time () and lc = Clock.create ~units:(tenants * keys) in
  let p = make_plib ~name:workload ~size:(16 lsl 20) ~keys:(tenants * keys) in
  let byte_quota = keys * (160 + 16) / 2 in
  let procs =
    Array.init tenants (fun i ->
      Simos.Process.make ~uid:(3000 + i) (Printf.sprintf "perf-tenant-%d" i))
  in
  let slots =
    fst
      (in_vm (fun _ ->
         Clock.start lc;
         Array.init tenants (fun i ->
           let slot =
             Plib.create_tenant p ~name:(Printf.sprintf "u%d" i) ~uid:(3000 + i)
               ~byte_quota ()
           in
           load lc o (tenant_front p slot) ~tenant:i ~keys;
           slot)))
  in
  let fronts = Array.map (tenant_front p) slots in
  fst
    (in_vm (fun vm ->
       let setup_s = setup_seconds ~h0 lc in
       let pr = start_measure cfg vm p t in
       (* Each client drives its own half of the tenants (by parity):
          Plib's quota accounting probes and charges around the set
          without holding the key's stripe, so two clients setting one
          tenant key at once can leave usage over-counted until the
          tenant's sets fail with No_memory. *)
       let elapsed_ns =
         closed_loop ~clients (fun c ->
           let st = streams.(c) in
           let pick n = c + (clients * (Gen.next_key st mod (n / clients))) in
           for _ = 1 to ops / clients / burst do
             (* 80% of bursts go to the 4 hot tenants *)
             let tenant =
               if Gen.next_float st < 0.8 then pick hot
               else hot + pick (tenants - hot)
             in
             Simos.Process.with_process procs.(tenant) (fun () ->
               for _ = 1 to burst do
                 let op = Gen.next_op st ~get:0.9 ~set:0.08 in
                 run_op t o fronts.(tenant) ~tenant ~k:(Gen.next_key st) op
               done)
           done)
       in
       finish ~workload ~cfg ~pr ~p ~t ~elapsed_ns ~setup_s ~sizes:[| 64; 160; 256 |]
         ~get_lat:(Samples.sorted t.get_lat) ~set_lat:(Samples.sorted t.set_lat) ()))

let all =
  [ ("lib-read", lib_read); ("lib-evict", lib_evict); ("ring-open", ring_open);
    ("socket-tenants", socket_tenants); ("lib-tenants", lib_tenants) ]
