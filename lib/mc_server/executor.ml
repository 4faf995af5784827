(** Mapping from protocol commands to store operations: the request
    pipeline every front end runs — socket and ring drains of both
    codecs, and the protected library's own calls. *)

module P = Mc_protocol.Types
module Tenant = Mc_core.Tenant

(* ---- Tenant scoping (connection-bound identity) ----------------------

   A caller bound to a tenant never addresses raw store keys: every
   key-carrying command is rewritten into the tenant's [<name>/]
   namespace {e before} execution, and the prefix stripped back out of
   the values on the way back, so the caller sees its own flat key
   space. The rewrite happens host-side from the bound identity — no
   byte sequence the caller sends can escape its prefix. With
   [Defenses.Tenant_namespace] off, keys pass through unscoped (the
   forged-prefix breach) and even [flush_all] reaches the whole store. *)

(* Every key a command carries, rewritten by [f]. *)
let map_keys f (cmd : P.command) : P.command =
  let params (p : P.store_params) = { p with P.key = f p.P.key } in
  match cmd with
  | P.Get keys -> P.Get (List.map f keys)
  | P.Gets keys -> P.Gets (List.map f keys)
  | P.Getx g -> P.Getx { g with g_key = f g.g_key }
  | P.Set p -> P.Set (params p)
  | P.Add p -> P.Add (params p)
  | P.Replace p -> P.Replace (params p)
  | P.Append p -> P.Append (params p)
  | P.Prepend p -> P.Prepend (params p)
  | P.Cas (p, u) -> P.Cas (params p, u)
  | P.Delete (k, n) -> P.Delete (f k, n)
  | P.Incr (k, d, n) -> P.Incr (f k, d, n)
  | P.Decr (k, d, n) -> P.Decr (f k, d, n)
  | P.Touch (k, e, n) -> P.Touch (f k, e, n)
  | (P.Flush_all | P.Stats _ | P.Version | P.Quit | P.Noop | P.Invalid _) as c
    -> c

(* Every key a command carries. *)
let keys_of (cmd : P.command) =
  match cmd with
  | P.Get keys | P.Gets keys -> keys
  | P.Getx { g_key; _ } -> [ g_key ]
  | P.Set p | P.Add p | P.Replace p | P.Append p | P.Prepend p | P.Cas (p, _) ->
    [ p.P.key ]
  | P.Delete (k, _) | P.Incr (k, _, _) | P.Decr (k, _, _) | P.Touch (k, _, _) ->
    [ k ]
  | P.Flush_all | P.Stats _ | P.Version | P.Quit | P.Noop | P.Invalid _ -> []

let scope_command ~prefix (cmd : P.command) : P.command =
  if not (Defenses.on Tenant_namespace) then cmd
  else
    match cmd with
    | P.Flush_all ->
      (* a global wipe from inside one namespace is exactly the
         cross-tenant attack; tenants flush through their own API *)
      P.Invalid "flush_all forbidden on tenant connections"
    | c -> map_keys (( ^ ) prefix) c

(* A store key under the name its tenant knows it by. *)
let unscope_key ~prefix k =
  if Defenses.on Tenant_namespace && String.starts_with ~prefix k then
    String.sub k (String.length prefix) (String.length k - String.length prefix)
  else k

let unscope_response ~prefix (resp : P.response) : P.response =
  match resp with
  | P.Values { with_cas; vals } when Defenses.on Tenant_namespace ->
    let strip v = { v with P.v_key = unscope_key ~prefix v.P.v_key } in
    P.Values { with_cas; vals = List.map strip vals }
  | r -> r

(* The `stats` surfaces a deployment serves from state outside the
   store: the heap observatory and (for the plib build) the post-mortem
   report live with the heap's owner, deployment settings (tenant
   count, ring geometry) with whoever owns them, and live per-ring
   drain figures with a ring server. Each server and library handle
   holds its own value, so two handles in one process never answer
   with each other's heap. *)
type surfaces = {
  heap : unit -> (string * string) list;
  forensics : unit -> (string * string) list;
  settings : unit -> (string * string) list;  (** appended to the build's *)
  rings : unit -> (string * string) list;  (** appended to the counters *)
}

(* An untenanted baseline server: no heap of its own to map, and the
   recorder-local analysis as its post-mortem. *)
let baseline_surfaces =
  { heap = (fun () -> []);
    forensics =
      (fun () -> Telemetry.Forensics.kvs (Telemetry.Forensics.analyze ()));
    settings = (fun () -> []);
    rings = (fun () -> []) }

module Make
    (M : Mc_core.Memory_intf.MEMORY)
    (A : Mc_core.Memory_intf.ALLOCATOR)
    (S : Platform.Sync_intf.S) =
struct
  module Store = Mc_core.Store.Make (M) (A) (S)

  let version = "1.6.0-plib-repro"

  let of_store_result : Mc_core.Store.store_result -> P.response = function
    | Mc_core.Store.Stored -> P.Stored
    | Mc_core.Store.Not_stored -> P.Not_stored
    | Mc_core.Store.Exists -> P.Exists
    | Mc_core.Store.Not_found -> P.Not_found
    | Mc_core.Store.No_memory -> P.Server_error "out of memory storing object"

  let retrieve ?tenants ?slot store keys ~with_cas =
    let vals =
      List.filter_map
        (fun key ->
          match Store.get store key with
          | Some r ->
            Some
              { P.v_key = key; v_flags = r.Mc_core.Store.flags;
                v_cas = r.Mc_core.Store.cas; v_data = r.Mc_core.Store.value }
          | None -> None)
        keys
    in
    (match (tenants, slot) with
     | Some reg, Some slot ->
       List.iter (fun _ -> Tenant.bump reg slot Tenant.Cmd_get) keys;
       List.iter (fun _ -> Tenant.bump reg slot Tenant.Get_hits) vals
     | _ -> ());
    P.Values { with_cas; vals }

  (* A tenant-bound write runs under the registry's admission, exactly
     as the in-process tenant API does: [op] hands the tenant's quota to
     its store call. Anything else runs as is, with no quota. *)
  let admit ?tenants ?slot store op =
    match (tenants, slot) with
    | Some reg, Some slot ->
      Tenant.admit reg slot ~evict:(Store.evict_some_matching store)
        (fun quota -> op (Some quota))
      |> Option.value ~default:(of_store_result Mc_core.Store.No_memory)
    | _ -> op None

  let counter_reply = function
    | Mc_core.Store.Counter v -> P.Number v
    | Mc_core.Store.Counter_not_found -> P.Not_found
    | Mc_core.Store.Non_numeric ->
      P.Client_error "cannot increment or decrement non-numeric value"

  (* [tenants] is the registry of a tenanted deployment: it serves
     `stats tenants` and joins `stats reset`. [slot] is the tenant a
     connection is bound to: its reads roll up on the slot's stats and
     its storage, delete and counter arms pass through admission. Keys
     arrive already scoped. [surfaces] serves the deployment's own
     `stats` arms. *)
  let execute ?tenants ?slot ?(surfaces = baseline_surfaces) store
      (cmd : P.command) : P.response =
    let admit op = admit ?tenants ?slot store op in
    (* a storage command counts as one [Cmd_set], admitted or refused *)
    let storage op =
      (match (tenants, slot) with
       | Some reg, Some slot -> Tenant.bump reg slot Tenant.Cmd_set
       | _ -> ());
      admit (fun quota -> of_store_result (op quota))
    in
    match cmd with
    | P.Get keys -> retrieve ?tenants ?slot store keys ~with_cas:false
    | P.Gets keys -> retrieve ?tenants ?slot store keys ~with_cas:true
    | P.Getx { g_key; _ } ->
      retrieve ?tenants ?slot store [ g_key ] ~with_cas:true
    | P.Set p ->
      storage (fun quota ->
        Store.set store ?quota ~flags:p.P.flags ~exptime:p.P.exptime p.P.key
          p.P.data)
    | P.Add p ->
      storage (fun quota ->
        Store.add store ?quota ~flags:p.P.flags ~exptime:p.P.exptime p.P.key
          p.P.data)
    | P.Replace p ->
      storage (fun quota ->
        Store.replace store ?quota ~flags:p.P.flags ~exptime:p.P.exptime
          p.P.key p.P.data)
    | P.Cas (p, unique) ->
      storage (fun quota ->
        Store.cas store ?quota ~flags:p.P.flags ~exptime:p.P.exptime
          ~cas:unique p.P.key p.P.data)
    | P.Append p ->
      storage (fun quota -> Store.append store ?quota p.P.key p.P.data)
    | P.Prepend p ->
      storage (fun quota -> Store.prepend store ?quota p.P.key p.P.data)
    | P.Delete (key, _) ->
      admit (fun quota ->
        if Store.delete store ?quota key then P.Deleted else P.Not_found)
    | P.Incr (key, delta, _) ->
      admit (fun quota -> counter_reply (Store.incr store ?quota key delta))
    | P.Decr (key, delta, _) ->
      admit (fun quota -> counter_reply (Store.decr store ?quota key delta))
    | P.Touch (key, exptime, _) ->
      if Store.touch store key exptime then P.Touched else P.Not_found
    | P.Stats None ->
      (* store counters (authoritative, standard names) plus the
         telemetry boundary counters: crossings, pku events, allocator
         traffic *)
      P.Stats_reply (Store.stats store @ Telemetry.Counters.boundary_kvs ())
    | P.Stats (Some "items") -> P.Stats_reply (Store.stats_items store)
    | P.Stats (Some "slabs") -> P.Stats_reply (Store.stats_slabs store)
    | P.Stats (Some "latency") ->
      (* extension: the probe's latency histograms, one summary block
         per key (each op, [hodor_call], [batch_size]) *)
      P.Stats_reply (Telemetry.Probe.Latency.kvs ())
    | P.Stats (Some "phases") ->
      (* extension: per-phase p50/p99 self-time breakdown folded from
         the sampled span trees *)
      P.Stats_reply (Telemetry.Span.phase_kvs ())
    | P.Stats (Some "contention") ->
      (* extension: the stripe-contention profiler's top-K report,
         plus the seqlock read-path counters that explain a quiet
         profile (hits never queued on a stripe at all) *)
      P.Stats_reply
        (Telemetry.Contention.kvs () @ Telemetry.Counters.optimistic_kvs ())
    | P.Stats (Some "rings") ->
      (* extension: shared-ring transport counters, plus the live
         per-connection drain state the ring server appends *)
      P.Stats_reply (Telemetry.Counters.ring_kvs () @ surfaces.rings ())
    | P.Stats (Some "tenants") ->
      P.Stats_reply
        (match tenants with Some reg -> Tenant.stats_kvs reg | None -> [])
    | P.Stats (Some "settings") ->
      (* the standard introspection arm: which toggles this build is
         actually running with *)
      let cfg = Store.config store in
      P.Stats_reply
        ([ ("optimistic_reads",
            if cfg.Mc_core.Store.optimistic_reads then "1" else "0");
           ("lock_count", string_of_int cfg.Mc_core.Store.lock_count);
           ("hashpower", string_of_int cfg.Mc_core.Store.hashpower);
           ("lru_count", string_of_int cfg.Mc_core.Store.lru_count);
           ("evict_batch", string_of_int cfg.Mc_core.Store.evict_batch);
           ("trace_level",
            Telemetry.Trace.severity_name (Telemetry.Trace.get_level ()));
           ("trace_sample_every",
            string_of_int (Telemetry.Span.sampling ()));
           ("slow_threshold_ns",
            string_of_int (Telemetry.Span.slow_threshold_ns ()));
           ("telemetry", if Telemetry.Control.on () then "1" else "0") ]
         @ Telemetry.Flight.settings_kvs ()
         @ surfaces.settings ())
    | P.Stats (Some "heap") ->
      (* the heap observatory: per-class occupancy, fragmentation,
         largest free extent, as the heap's owner maps it *)
      P.Stats_reply (surfaces.heap ())
    | P.Stats (Some "forensics") ->
      (* the post-mortem story: death classification, victim op and
         stripes, recovery cross-checks *)
      P.Stats_reply (surfaces.forensics ())
    | P.Stats (Some "reset") ->
      Store.stats_reset store;
      Telemetry.Counters.reset ();
      Telemetry.Probe.Latency.reset ();
      Telemetry.Span.reset_phases ();
      Telemetry.Contention.reset ();
      (* tenant op tallies reset too; registry membership, quotas and
         vkeys are durable state, not statistics *)
      Option.iter Tenant.reset_stats tenants;
      P.Reset
    | P.Stats (Some arg) -> P.Client_error ("unknown stats argument " ^ arg)
    | P.Version -> P.Version_reply version
    | P.Flush_all ->
      Store.flush_all store;
      P.Ok
    | P.Quit -> P.Ok
    | P.Noop -> P.Ok
    | P.Invalid m -> P.Client_error m

  (* The dispatch edge: tenant and conn ride on the tenant-scope and
     ring-drain records, so the op's own record names only the op. *)
  let execute ?tenants ?slot ?surfaces store (cmd : P.command) : P.response =
    Telemetry.Probe.dispatch ~op:(P.command_name cmd) (fun () ->
      execute ?tenants ?slot ?surfaces store cmd)

  (* ---- Batch execution ------------------------------------------------- *)

  (* Only operations whose store work stays within their own key's
     stripe may run under a stripe group. Storage and counter commands
     allocate, and allocation can evict items living in arbitrary
     other stripes — taking those locks while a group is held would be
     a same-class rank inversion. They execute per-op instead, with
     their usual internal locking, still inside the one crossing. *)
  let groupable = function
    | P.Get _ | P.Gets _ | P.Getx _ | P.Delete _ | P.Touch _ -> true
    | _ -> false

  (* Execute a pipelined batch. Groupable runs acquire their distinct
     stripes once, sorted ascending (creation-rank order — the lockdep
     discipline for same-class mutexes), and ops execute in arrival
     order under the group, so two ops on one key keep their relative
     order. Responses align 1:1 with [cmds]. [on_op i r] fires as soon
     as op [i] has fully completed — an application-level ack: if the
     calling thread dies mid-batch, every acked op has committed. *)
  let run_batch ?on_op ?tenants ?slot ?surfaces store (cmds : P.command list)
      : (P.command * P.response) list =
    let acked = ref 0 in
    let run c =
      let r = execute ?tenants ?slot ?surfaces store c in
      Option.iter (fun f -> f !acked r) on_op;
      incr acked;
      (c, r)
    in
    let rec split_run acc = function
      | c :: rest when groupable c -> split_run (c :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec go acc = function
      | [] -> List.rev acc
      | c :: _ as cmds when groupable c ->
        let group, rest = split_run [] cmds in
        (* With the seqlock read path on, gets need no stripes — they
           validate against the version words and fall back per-op on
           conflict. Only the mutating groupables (delete/touch) still
           pin their stripes; an all-get run holds nothing at all. *)
        let optimistic =
          (Store.config store).Mc_core.Store.optimistic_reads
        in
        let stripes =
          List.sort_uniq compare
            (List.concat_map
               (fun c ->
                 match c with
                 | (P.Get _ | P.Gets _ | P.Getx _) when optimistic -> []
                 | c -> List.map (Store.stripe_of store) (keys_of c))
               group)
        in
        let resps =
          (* [group] covers the stripe-amortized run: stripe_wait/
             stripe_hold and the per-op [exec] children nest under it. *)
          Telemetry.Span.around ~phase:"group" (fun () ->
            Store.with_stripes store ~stripes (fun () ->
              List.map run group))
        in
        go (List.rev_append resps acc) rest
      | c :: rest -> go (run c :: acc) rest
    in
    go [] cmds

  let run_cmds ?tenants ?slot ?surfaces ?copy_in ?on_op ~batch store cmds =
    let cmds =
      match copy_in with None -> cmds | Some f -> List.map (map_keys f) cmds
    in
    if batch then run_batch ?on_op ?tenants ?slot ?surfaces store cmds
    else List.map (fun c -> (c, execute ?tenants ?slot ?surfaces store c)) cmds

  (* The request pipeline every front end runs inside its crossing: each
     command scoped into tenant [slot]'s namespace under the one tenant
     edge, Figure 4's [copy_in] of every key the store will see, the
     commands run one by one or, with [batch], in stripe groups, and the
     replies unscoped. The pairs carry the commands as sent. *)
  let pipeline ?tenants ?slot ?surfaces ?copy_in ?on_op ~batch store
      (cmds : P.command list) : (P.command * P.response) list =
    match (tenants, slot) with
    | Some reg, Some s ->
      let prefix = Tenant.prefix reg s in
      Telemetry.Probe.tenant ~slot:s (fun () ->
        List.map2
          (fun cmd (_, resp) -> (cmd, unscope_response ~prefix resp))
          cmds
          (run_cmds ?tenants ?slot ?surfaces ?copy_in ?on_op ~batch store
             (List.map (scope_command ~prefix) cmds)))
    | _ -> run_cmds ?tenants ?slot ?surfaces ?copy_in ?on_op ~batch store cmds
end
