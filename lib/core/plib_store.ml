(** memcached as a Hodor protected library — the paper's contribution.

    Lifecycle (§3.2):
    - a {e bookkeeping process} creates the shared heap (a Ralloc heap
      over a region standing in for the memory-mapped file, owned
      uid-and-mode style via the simulated FS), builds the store in
      it, and anchors the control block behind a persistent root with
      one extra level of indirection (Figure 3's [hashtable_storage]
      idiom, so the structure may be reallocated later);
    - client processes "map" the heap by linking against the library:
      the loader opens the store file with the {e owner's} effective
      uid (§3.3), so clients never hold rights to the file itself;
    - every public operation runs through a Hodor trampoline; keys
      arriving from the client are copied into a library-private
      Ralloc buffer {e before} any lock is taken (Figure 4's
      [key_prot] idiom, §3.4);
    - on shutdown the bookkeeping process flushes the heap to its
      backing file; a restart maps the file and finds everything again
      through the roots — position independence makes the reload free.

    The [Protection] choice selects the paper's three measured
    configurations: the baseline server lives in {!Mc_server}; here
    [Protected] is "Plib, w/Hodor" and [Unprotected] is "Plib, No
    Hodor". *)

module CM = Platform.Cost_model
module P = Mc_protocol.Types
module Ex = Mc_server.Executor
module Region = Shm.Region
module Process = Simos.Process

let root_primary = 0
(** Persistent root id anchoring the double-indirect cell that points
    at the store control block. *)

let root_telemetry = 1
(** Persistent root id anchoring the telemetry counter block: a flat
    array of [Telemetry.Counters.cells] 64-bit words in the shared
    heap. Because it hangs off a root, the block survives client
    crashes and bookkeeper restarts, and recovery {e sifts} it (keeps
    it live) rather than resetting it — the SIFT semantics DESIGN.md
    documents. *)

let root_retired_arena = 2
(** Persistent root id that anchored a bump-allocation tier in heap
    images written before every small item went to Ralloc's size
    classes. Such an image keeps small items inside the tier's regions,
    which Ralloc cannot free one by one, so {!Make.restart} refuses any
    image that sets it. The id stays reserved. *)

let root_tenants = 3
(** Persistent root id anchoring the tenant registry block
    ({!Mc_core.Tenant}): membership, quotas, per-tenant stats and
    virtual-pkey ids live in the shared heap, so tenancy survives
    client crashes and bookkeeper restarts. Usage counters inside the
    block may be mid-update at a kill; recovery recomputes them from
    the store itself. *)

let root_rings = 4
(** Persistent root id anchoring the shared-ring directory: a fixed
    table of (cid, block, sub, comp) rows, one per live ring-mode
    connection, with the ring pairs themselves carved out of this same
    heap. Recovery keeps every in-use pair alive through the directory
    and replays each ring's recovery protocol, so acked completions
    survive a crash while in-flight-but-unacked submissions are simply
    discarded with the connection. *)

let root_flight = 5
(** Persistent root id anchoring the flight-recorder block: the
    per-thread breadcrumb rings plus the pre-crash trace snapshot area
    ({!Telemetry.Flight}). Living in the shared heap, the breadcrumbs a
    dying client wrote survive its death — the forensic report
    ({!Telemetry.Forensics}) is reconstructed from this block after
    recovery. Records are published seq-word-last, so a record the
    victim was mid-write is simply invisible, never torn. *)

let max_ring_conns = 64
(** Ring-directory capacity: live ring-mode connections per store. *)

(* The ring directory: [max_ring_conns] rows of five 64-bit words —
   state (0 free, 1 live, 2 claimed), cid, block, sub base, comp base.
   A row is claimed before anything is carved for it, so a full
   directory refuses a connection with nothing to undo. It goes live
   only once fully described and is freed first on teardown, so a kill
   at any point leaves either a fully described pair or an unreferenced
   block; recovery frees the claims a kill left behind. *)
module Ring_dir = struct
  let bytes = max_ring_conns * 40

  let word region row k = Region.read_i64 region (row + (8 * k))

  let rows region dir state =
    List.init max_ring_conns (fun i -> dir + (i * 40))
    |> List.filter (fun row -> word region row 0 = state)

  let claim region dir =
    match rows region dir 0 with
    | [] -> None
    | row :: _ ->
      Region.write_i64 region row 2;
      Some row

  (* [cid; block; sub; comp] into a claimed row, which goes live. *)
  let publish region row words =
    List.iteri (fun k v -> Region.write_i64 region (row + 8 + (8 * k)) v) words;
    Region.write_i64 region row 1

  (* Frees [cid]'s live row; its block and sub base. *)
  let release region dir ~cid =
    List.find_opt (fun row -> word region row 1 = cid) (rows region dir 1)
    |> Option.map (fun row ->
      Region.write_i64 region row 0;
      (word region row 2, word region row 3))

  (* (block, [sub; comp]) of every live row. *)
  let live region dir =
    List.map
      (fun row -> (word region row 2, [ word region row 3; word region row 4 ]))
      (rows region dir 1)

  let reap_claims region dir =
    List.iter (fun row -> Region.write_i64 region row 0) (rows region dir 2)
end

let max_tenants = 64
(** Registry capacity — also the scale the vpkey layer is sized for:
    64 virtual keys multiplexed onto the 16 hardware slots. *)

module Make
    (S : Platform.Sync_intf.S)
    (T : module type of Transport.Sock.Make (S)) =
struct
  module Store =
    Mc_core.Store.Make (Mc_core.Shared_memory) (Mc_core.Ralloc_alloc) (S)

  (* The server the hybrid deployment starts ({!serve_remote}); the
     batch plane runs its executor too. *)
  module Remote = Mc_server.Server.Make_hybrid (S) (T)
  module E = Remote.E

  module Tenant = Mc_core.Tenant

  type t = {
    lib : Hodor.Library.t;
    region : Region.t;
    heap : Ralloc.t;
    store : Store.t;
    tenants : Tenant.t;
    (* Per-tenant "vaults": one vkey-tagged page each, the visible
       proof of the tenant's protection domain. Host-side objects (the
       registry persists the vkey ids; vaults are re-created on
       restart as tenants re-authenticate). *)
    vaults : (int, Region.t) Hashtbl.t;
    path : string;
    owner : Process.t;
    stop_cleaner : bool Atomic.t;
    mutable cleaner : S.thread option;
    (* Report of the last post-crash recovery, reconstructed from the
       flight recorder at the end of [Library.recover]; [None] until a
       recovery has run. Served by [doctor]/[forensics]. *)
    mutable last_forensics : Telemetry.Forensics.report option;
    (* The `stats` surfaces this handle serves, built once with it. *)
    surfaces : Ex.surfaces Lazy.t;
  }

  type protection = Hodor.Library.protection = Protected | Unprotected

  (* Find (restart) or allocate (first boot) the shared-heap telemetry
     block and point the process-wide counter store at it. Counter
     bumps are host-side bookkeeping: they run in kernel mode (a bump
     can happen before the trampoline has opened the pkru — e.g. the
     [hodor_enter] count itself) and charge no virtual time. The Vm
     schedules cooperatively at sync points only, so the read-modify-
     write below is atomic within a simulation. *)
  let attach_telemetry ~region ~heap =
    Region.kernel_mode (fun () ->
      let block =
        match Ralloc.get_root heap root_telemetry with
        | 0 ->
          let block = Ralloc.alloc heap (8 * Telemetry.Counters.cells) in
          Region.fill region ~off:block ~len:(8 * Telemetry.Counters.cells)
            '\000';
          Ralloc.set_root heap root_telemetry block;
          block
        | block -> block
      in
      Telemetry.Counters.install_backend
        { add =
            (fun cell d ->
              Region.kernel_mode (fun () ->
                let at = block + (8 * cell) in
                Region.write_i64 region at (Region.read_i64 region at + d)));
          read =
            (fun cell ->
              Region.kernel_mode (fun () ->
                Region.read_i64 region (block + (8 * cell))));
          zero =
            (fun () ->
              Region.kernel_mode (fun () ->
                Region.fill region ~off:block
                  ~len:(8 * Telemetry.Counters.cells) '\000')) })

  (* Find (restart) or allocate (first boot) the flight-recorder block
     and point the process-wide recorder at it. Like the counter block,
     breadcrumb writes are host-side bookkeeping running in kernel mode
     (a crumb can land inside the trampoline before the pkru is open)
     and charge no virtual time; the publish-last stamping inside
     [Telemetry.Flight] is what makes a mid-write kill leave no torn
     record. On re-attach the existing breadcrumbs are preserved — they
     are exactly the forensic evidence of the previous life. *)
  let attach_flight ~region ~heap =
    Region.kernel_mode (fun () ->
      let block =
        match Ralloc.get_root heap root_flight with
        | 0 ->
          let block = Ralloc.alloc heap Telemetry.Flight.bytes in
          Region.fill region ~off:block ~len:Telemetry.Flight.bytes '\000';
          Ralloc.set_root heap root_flight block;
          block
        | block -> block
      in
      Telemetry.Flight.install_backend
        { Telemetry.Flight.read =
            (fun w ->
              Region.kernel_mode (fun () ->
                Region.read_i64 region (block + (8 * w))));
          write =
            (fun w v ->
              Region.kernel_mode (fun () ->
                Region.write_i64 region (block + (8 * w)) v)) };
      Telemetry.Flight.ensure_formatted ())

  (* Tenant plumbing installed on every handle's store:
     - the LRU selector routes each tenant's items onto the LRU list
       matching its registry slot, so per-tenant eviction scans only
       the tenant's own cold end (and recovery rebuilds per-tenant
       LRUs for free — [Store.recover] relinks through the selector);
     - the evict hook credits the owning tenant's usage and bumps its
       eviction stat whenever the store reclaims one of its items. *)
  let install_tenant_hooks ~store ~tenants =
    Store.set_lru_selector store
      (Some (fun key -> Tenant.owner_slot_of_key tenants key));
    Store.set_evict_hook store
      (Some
         (fun ~key ~bytes ->
           match Tenant.owner_slot_of_key tenants key with
           | Some slot ->
             Tenant.charge tenants slot ~bytes:(-bytes) ~items:(-1);
             Tenant.bump tenants slot Tenant.Evictions
           | None -> ()))

  (* Each tenant slot's (bytes, items) as the store holds them: what
     recovery resets usage to. Stop-the-world like [Store.fold_keys];
     the caller needs the heap's pages. *)
  let tenant_recount t =
    let usage = Array.make (Tenant.max_tenants t.tenants) (0, 0) in
    Store.fold_keys t.store
      (fun () key ~nbytes ~exptime:_ ->
        match Tenant.owner_slot_of_key t.tenants key with
        | Some slot ->
          let b, i = usage.(slot) in
          usage.(slot) <- (b + String.length key + nbytes, i + 1)
        | None -> ())
      ();
    usage

  (* ---- Post-crash forensics surface ----------------------------------

     [forensics] hands back the report stashed by the last recovery —
     or, when no recovery has run, a live analysis of the recorder
     (useful for inspecting a healthy store's recent activity).
     [doctor] renders it for humans, resolving tenant slots to names
     through the registry. *)

  let forensics t =
    match t.last_forensics with
    | Some r -> r
    | None -> Telemetry.Forensics.analyze ()

  let doctor t =
    let tenant_name slot =
      if slot >= 0 && slot < Tenant.max_tenants t.tenants
         && Region.kernel_mode (fun () -> Tenant.active t.tenants slot)
      then
        Printf.sprintf "%s (slot %d)"
          (Region.kernel_mode (fun () -> Tenant.name_of t.tenants slot))
          slot
      else Printf.sprintf "slot %d" slot
    in
    Telemetry.Forensics.render ~tenant_name (forensics t)

  (* This handle's `stats` surfaces, for its own batches and for the
     servers it starts: `stats heap` maps the allocator plus the
     store's slab accounting, `stats forensics` serves
     {!forensics}, and `stats settings` adds the registry's size. *)
  let surfaces t =
    { Ex.heap =
        (fun () ->
          Region.kernel_mode (fun () ->
            Ralloc.heap_kvs t.heap @ Store.stats_slabs t.store));
      forensics = (fun () -> Telemetry.Forensics.kvs (forensics t));
      settings =
        (fun () ->
          Region.kernel_mode (fun () ->
            [ ("tenants_active", string_of_int (Tenant.count_active t.tenants));
              ("tenants_max", string_of_int (Tenant.max_tenants t.tenants)) ]));
      rings = (fun () -> []) }

  let build_handle ~lib ~region ~heap ~store ~tenants ~path ~owner =
    let rec t =
      { lib; region; heap; store; tenants;
        vaults = Hashtbl.create 8; path; owner;
        stop_cleaner = Atomic.make false; cleaner = None;
        last_forensics = None; surfaces = lazy (surfaces t) }
    in
    attach_telemetry ~region ~heap;
    attach_flight ~region ~heap;
    install_tenant_hooks ~store ~tenants;
    (* The slot table is process-volatile; the registry is the truth.
       Re-create each persisted vkey so binds work after a restart. *)
    Region.kernel_mode (fun () ->
      Tenant.iter_active tenants (fun slot ->
        let vk = Tenant.vkey_of tenants slot in
        if vk > 0 then
          Pku.Vpkey.restore ~id:vk ~owner:(Tenant.uid_of tenants slot)));
    (* Recovery protocol, run by the bookkeeping process at quiescence
       after a client died mid-call: the store drops half-linked items
       and hands back the reachable set, which the allocator uses to
       rebuild its free lists — anything a dead thread allocated but
       never linked is reclaimed. The Figure-3 indirection cell is live
       too: it is reachable from the root, not from the store. *)
    Hodor.Library.set_recover lib (fun () ->
      Region.kernel_mode (fun () ->
        let live = Store.recover t.store in
        (* Each block under its own persistent root stays whole: the
           Figure-3 cell; the telemetry block and
           the tenant registry, sifted rather than reset (monotone
           counters; durable membership, quotas and vkey ids); and the
           flight recorder, whose last breadcrumbs are the evidence the
           forensic pass below reads. *)
        let live =
          List.fold_left
            (fun live root ->
              match Ralloc.get_root t.heap root with 0 -> live | b -> b :: live)
            live
            [ root_primary; root_telemetry; root_tenants; root_flight ]
        in
        (* Ring pairs of live connections stay carved; each ring then
           runs its own recovery protocol — acked completions survive,
           a message the dead client was mid-publish is truncated away
           (its first-slot seq was stamped last), and in-flight-but-
           unacked submissions simply vanish with the window. *)
        let live =
          match Ralloc.get_root t.heap root_rings with
          | 0 -> live
          | dir ->
            Ring_dir.reap_claims t.region dir;
            List.fold_left
              (fun live (block, rings) ->
                List.iter
                  (fun base ->
                    Transport.Ring.(recover (attach t.region ~base)))
                  rings;
                block :: live)
              (dir :: live) (Ring_dir.live t.region dir)
        in
        Ralloc.recover t.heap ~live;
        (* Rebuild the volatile tenant state from durable truth:
           re-create each tenant's vkey in the slot table, then
           recompute usage by walking the recovered store — the
           in-block counters may have been mid-update at the kill. *)
        let reg = t.tenants in
        Tenant.iter_active reg (fun slot ->
          let vk = Tenant.vkey_of reg slot in
          if vk > 0 then
            Pku.Vpkey.restore ~id:vk ~owner:(Tenant.uid_of reg slot));
        let usage = tenant_recount t in
        Tenant.iter_active reg (fun slot ->
          let bytes, items = usage.(slot) in
          Tenant.set_usage reg slot ~bytes ~items);
        (* ---- Post-crash forensics --------------------------------------
           Recovery has just repaired the store; now cross-check the
           repaired state against what the flight recorder says the
           victim was doing, reconstruct the per-thread timelines, and
           stash the report for [doctor] / `stats forensics`. *)
        let checks =
          let stripes = Store.stripe_count t.store in
          let odd = ref 0 in
          for s = 0 to stripes - 1 do
            if Store.seq_read t.store s land 1 <> 0 then incr odd
          done;
          let seq_ck =
            { Telemetry.Forensics.ck_name = "stripe_seqs_even";
              ck_ok = !odd = 0;
              ck_detail =
                (if !odd = 0 then
                   Printf.sprintf "all %d stripe seq words even" stripes
                 else Printf.sprintf "%d stripe seq words still odd" !odd) }
          in
          let rings_ck =
            let pairs =
              match Ralloc.get_root t.heap root_rings with
              | 0 -> []
              | dir -> Ring_dir.live t.region dir
            in
            let bad =
              List.filter
                (fun base ->
                  Result.is_error
                    Transport.Ring.(pending (attach t.region ~base)))
                (List.concat_map snd pairs)
            in
            { Telemetry.Forensics.ck_name = "rings_valid";
              ck_ok = bad = [];
              ck_detail =
                Printf.sprintf "%d live pairs, %d invalid windows"
                  (List.length pairs) (List.length bad) }
          in
          let inv_ck =
            match Ralloc.check_invariants t.heap with
            | () ->
              { Telemetry.Forensics.ck_name = "heap_invariants";
                ck_ok = true; ck_detail = "superblock walk clean" }
            | exception Failure msg ->
              { Telemetry.Forensics.ck_name = "heap_invariants";
                ck_ok = false; ck_detail = msg }
          in
          let recon_ck =
            let hm = Ralloc.heap_map t.heap in
            let used = Ralloc.used_bytes t.heap in
            { Telemetry.Forensics.ck_name = "heap_reconciles";
              ck_ok = hm.Ralloc.hm_live_bytes = used;
              ck_detail =
                Printf.sprintf "map %d bytes vs counter %d bytes"
                  hm.Ralloc.hm_live_bytes used }
          in
          [ seq_ck; rings_ck; inv_ck; recon_ck ]
        in
        let report =
          Telemetry.Forensics.analyze ~heap:(Ralloc.heap_kvs t.heap) ~checks ()
        in
        t.last_forensics <- Some report;
        Telemetry.Trace.emit ~sev:Telemetry.Trace.Info ~subsys:"forensics"
          ("recovery verdict: " ^ Telemetry.Forensics.verdict report);
        (* The death note served its purpose; don't let it finger the
           same victim at the next, unrelated recovery. *)
        Telemetry.Flight.clear_victim ()));
    t

  (* The bookkeeping process creates the store from nothing. *)
  let create ?(protection = Protected) ?(copy_args = false)
      ?(store_cfg = Mc_core.Store.default_config) ~path ~size
      ~(owner : Process.t) () =
    let lib =
      Hodor.Library.create ~protection ~copy_args ~name:("libmemcached:" ^ path)
        ~owner_uid:(Process.uid owner) ()
    in
    let region =
      Region.create ~name:path ~size ~pkey:(Hodor.Library.pkey lib) ()
    in
    Hodor.Library.protect_region lib region;
    Simos.Sim_fs.create_file ~path ~owner:(Process.uid owner) ~mode:0o600 region;
    let heap = Ralloc.create region in
    let store, tenants =
      Region.kernel_mode (fun () ->
        let store =
          Store.create
            ~mem:(Mc_core.Shared_memory.of_region region)
            ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
            store_cfg
        in
        (* Figure 3: root -> cell -> control block, so the block could
           move (e.g. on a future table resize) without re-rooting. *)
        let cell = Ralloc.alloc heap 16 in
        Ralloc.Pptr.store region ~at:cell (Store.ctrl_off store);
        Ralloc.set_root heap root_primary cell;
        let tblock = Ralloc.alloc heap (Tenant.size_for ~max:max_tenants) in
        let tenants = Tenant.format region ~base:tblock ~max:max_tenants in
        Ralloc.set_root heap root_tenants tblock;
        (store, tenants))
    in
    build_handle ~lib ~region ~heap ~store ~tenants ~path ~owner

  (* Restart: map the flushed heap file and find the store through the
     persistent root. No data-rebuilding code exists — that is the
     paper's point (§6). An image from the bump-tier days is refused
     before anything is registered for it. *)
  let restart ?(protection = Protected) ?(copy_args = false)
      ?(store_cfg = Mc_core.Store.default_config) ~disk_path ~path
      ~(owner : Process.t) () =
    let region = Region.load ~path:disk_path in
    let heap = Ralloc.attach region in
    if Region.kernel_mode (fun () -> Ralloc.get_root heap root_retired_arena) <> 0
    then
      failwith
        "restart: heap image keeps small items in a bump-allocation tier, \
         which this allocator cannot free";
    let lib =
      Hodor.Library.create ~protection ~copy_args ~name:("libmemcached:" ^ path)
        ~owner_uid:(Process.uid owner) ()
    in
    Hodor.Library.protect_region lib region;
    Simos.Sim_fs.create_file ~path ~owner:(Process.uid owner) ~mode:0o600 region;
    let store, tenants =
      Region.kernel_mode (fun () ->
        let cell = Ralloc.get_root heap root_primary in
        if cell = 0 then failwith "restart: no store rooted in this heap";
        let ctrl = Ralloc.Pptr.load region ~at:cell in
        let store =
          Store.attach
            ~mem:(Mc_core.Shared_memory.of_region region)
            ~alloc:(Mc_core.Ralloc_alloc.of_heap heap)
            store_cfg ~ctrl
        in
        let tenants =
          (* Heaps flushed before multi-tenancy have no registry. *)
          match Ralloc.get_root heap root_tenants with
          | 0 ->
            let tblock =
              Ralloc.alloc heap (Tenant.size_for ~max:max_tenants)
            in
            let reg = Tenant.format region ~base:tblock ~max:max_tenants in
            Ralloc.set_root heap root_tenants tblock;
            reg
          | tblock -> Tenant.attach region ~base:tblock
        in
        (store, tenants))
    in
    build_handle ~lib ~region ~heap ~store ~tenants ~path ~owner

  (* A client process links the library: the loader performs the euid
     dance to open the store file on the client's behalf (§3.3). *)
  let open_client t ~(process : Process.t) =
    Process.with_process process (fun () ->
      let region = Hodor.Loader.init_library t.lib ~store_path:t.path in
      assert (region == t.region))

  let library t = t.lib

  let path t = t.path

  let store t = t.store

  let heap t = t.heap

  let region t = t.region

  let heap_report t =
    Region.kernel_mode (fun () -> Ralloc.render_heap_map t.heap)

  (* ---- Figure 4's copy-in idiom ------------------------------------- *)

  (* Copy client-supplied bytes into a library-private Ralloc buffer
     before any shared state is touched; the returned string is the
     library's stable snapshot. *)
  let copy_in t (buf : bytes) : string =
    let len = Bytes.length buf in
    let prot = Ralloc.alloc t.heap (max len 16) in
    Region.blit_from_bytes t.region ~src:buf ~src_off:0 ~dst_off:prot ~len;
    S.advance (CM.memcpy_cost len);
    let snapshot = Region.read_string t.region ~off:prot ~len in
    Ralloc.free t.heap prot;
    snapshot

  let enter t f = Hodor.Trampoline.call t.lib f

  (* Trace ingress on the client-facing surface: each public op mints a
     trace rooted at [plib.<op>] (or, when already under a server-drain
     trace, degrades to a child span). An exception on the way out
     drops the root — a failed call carries no latency worth
     attributing. *)
  let span_root name f =
    let r = Telemetry.Probe.ingress ~op:("plib." ^ name) () in
    match f () with
    | v ->
      Telemetry.Span.finish r;
      v
    | exception e ->
      Telemetry.Span.drop r;
      raise e

  (* ---- One command core -----------------------------------------------

     Every library op is executor commands behind one crossing, run
     through the pipeline a server drain runs; {!Typed} decodes the
     replies exactly as it decodes the socket client's. *)

  (* The library's door. Library keys are length-framed, like binary
     ones, so the binary codec's rules apply: a key of 1 to 250 bytes
     and a value of at most [max_data_bytes]. A refused command reaches
     the executor as [Invalid], which answers it as a server does, so
     both backends give the same typed result. *)
  let door (cmd : P.command) =
    match cmd with
    | P.Set p | P.Add p | P.Replace p | P.Append p | P.Prepend p | P.Cas (p, _)
      when String.length p.P.data > P.max_data_bytes ->
      P.Invalid "object too large for cache"
    | _ when List.for_all P.validate_key_binary (Ex.keys_of cmd) -> cmd
    | _ -> P.Invalid P.bad_key_error

  (* Inside the crossing, past the door: the executor's pipeline, bound
     to tenant [slot], with Figure 4's copy-in of each key before any
     lock — unless [copy] is off, for keys the library found itself. *)
  let run ?slot ?on_op ?(copy = true) ~batch t cmds =
    let copy_in =
      if copy then Some (fun k -> copy_in t (Bytes.unsafe_of_string k))
      else None
    in
    E.pipeline ~tenants:t.tenants ?slot ~surfaces:(Lazy.force t.surfaces)
      ?copy_in ?on_op ~batch t.store cmds

  let scalar ?slot t cmd = snd (List.hd (run ?slot ~batch:false t [ door cmd ]))

  (* ---- Multi-tenant surface ------------------------------------------- *)

  (* A tenant-scoped operation is confined to its namespace {e by
     construction}: the connection- (or caller-)bound tenant slot
     picks the [<name>/] prefix host-side, before the key is even
     copied into the library, so no client-supplied byte sequence can
     address another tenant's items. The tenant's virtual pkey is its
     capability: every scoped op binds it under the caller's euid
     first — the bind is refused (Vpkey.Permission_denied) for anyone
     but the owner or root. *)

  let tenants t = t.tenants

  let vault t slot = Hashtbl.find_opt t.vaults slot

  let bind_capability t slot =
    let uid = Process.euid (Process.current ()) in
    (* The multiplexing (slot grab, re-tag) is kernel-side work, as in
       libmpk's kernel module; the ownership check runs regardless.
       Callers run this {e before} entering the crossing — a refusal
       is a clean Permission_denied at the door, never an in-call
       failure that would poison the shared library. *)
    Region.kernel_mode (fun () ->
      let vk = Tenant.vkey_of t.tenants slot in
      if vk <= 0 then invalid_arg "Plib: tenant has no vkey";
      ignore (Pku.Vpkey.bind ~owner:uid vk))

  (* A refused registration (a bad or duplicate name, a full registry)
     leaves the crossing as a value and is raised after it, so the
     refusal never poisons the library. *)
  let create_tenant t ~name ~uid ?(byte_quota = 0) ?(item_quota = 0) () =
    span_root "create_tenant" @@ fun () ->
    enter t (fun () ->
      match Tenant.register t.tenants ~name ~uid ~byte_quota ~item_quota with
      | exception Invalid_argument m -> Error m
      | slot ->
        let vk = Pku.Vpkey.alloc ~owner:uid () in
        Tenant.set_vkey t.tenants slot vk;
        (* The tenant's vault: one page tagged through the vkey, proving
           the namespace's protection domain. Readable only under the
           owner's bound key; quarantined whenever the vkey loses its
           hardware slot. *)
        let vault =
          Region.kernel_mode (fun () ->
            Region.create
              ~name:(Printf.sprintf "%s!vault!%s" t.path name)
              ~size:Region.page_size ~pkey:Pku.Pkey.default ())
        in
        Pku.Vpkey.attach_retag vk (fun hw ->
          Region.kernel_mode (fun () ->
            Region.tag_range vault ~off:0 ~len:Region.page_size ~pkey:hw));
        Region.kernel_mode (fun () ->
          Region.write_string vault ~off:8 ("vault:" ^ name));
        Hashtbl.replace t.vaults slot vault;
        Ok slot)
    |> Result.fold ~ok:Fun.id ~error:invalid_arg

  let find_tenant t name = enter t (fun () -> Tenant.find t.tenants name)

  (* One op, one plain crossing: not a batch, so the batch counters and
     crossings/op do not move. Bound to tenant [slot], the capability is
     bound at the door first. *)
  let one ?slot name t : Typed.rt =
   fun cmd ->
    span_root name @@ fun () ->
    (match slot with Some slot -> bind_capability t slot | None -> ());
    enter t (fun () -> scalar ?slot t cmd)

  (* ---- String-keyed operations (OCaml strings are immutable, so the
     copy is for cost and idiom fidelity) -------------------------------- *)

  let get t = Typed.get (one "get" t)

  let set t = Typed.set (one "set" t)

  let add t = Typed.add (one "add" t)

  let replace t = Typed.replace (one "replace" t)

  let append t = Typed.append (one "append" t)

  let prepend t = Typed.prepend (one "prepend" t)

  let cas t = Typed.cas (one "cas" t)

  let delete t = Typed.delete (one "delete" t)

  let incr t = Typed.incr (one "incr" t)

  let decr t = Typed.decr (one "decr" t)

  let touch t = Typed.touch (one "touch" t)

  let flush_all t = ignore (one "flush_all" t P.Flush_all)

  (* The store counters plus the boundary counters, as a server's
     `stats` answers. *)
  let stats ?arg t = Typed.stats ?arg (one "stats" t)

  (* ---- Raw (bytes-keyed) operations: the real protection boundary ---

     The trampoline hands the body its snapshot of the argument bytes
     (with [copy_args]); the body runs the command as every op does,
     whose pipeline copies the key in. [set_raw] copies the value in. *)

  let get_raw t (key : bytes) =
    span_root "get" @@ fun () ->
    Hodor.Trampoline.call_with_args t.lib ~args:[ key ] (fun args ->
      Typed.get (scalar t) (Bytes.unsafe_to_string (List.hd args)))

  let set_raw t ?flags ?exptime (key : bytes) (data : bytes) =
    span_root "set" @@ fun () ->
    Hodor.Trampoline.call_with_args t.lib ~args:[ key; data ] (function
      | [ key; data ] ->
        Typed.set (scalar t) ?flags ?exptime (Bytes.unsafe_to_string key)
          (copy_in t data)
      | _ -> assert false)

  (* ---- Tenant-scoped operations ---------------------------------------- *)

  let tenant_get t slot = Typed.get (one ~slot "tenant_get" t)

  let tenant_set t slot = Typed.set (one ~slot "tenant_set" t)

  let tenant_delete t slot = Typed.delete (one ~slot "tenant_delete" t)

  let tenant_touch t slot = Typed.touch (one ~slot "tenant_touch" t)

  (* Tenant-scoped flush: only the tenant's own namespace is swept —
     tenant A's flush storm cannot take tenant B's acked writes. The
     read-only walk finds the namespace's keys; each delete then runs,
     under the tenant's name for the key and its admission, with no
     copy-in: the library found the keys itself. *)
  let tenant_flush t slot =
    span_root "tenant_flush" @@ fun () ->
    bind_capability t slot;
    enter t (fun () ->
      let prefix = Tenant.prefix t.tenants slot in
      let keys =
        Store.fold_keys t.store
          (fun acc key ~nbytes:_ ~exptime:_ ->
            if String.starts_with ~prefix key then
              P.Delete (Ex.unscope_key ~prefix key, false) :: acc
            else acc)
          []
      in
      List.length (run ~slot ~copy:false ~batch:false t keys))

  let tenant_usage t slot =
    enter t (fun () ->
      (Tenant.bytes_used t.tenants slot, Tenant.items_used t.tenants slot))

  let stats_tenants t = stats ~arg:"tenants" t

  (* ---- Batch plane: many operations, one crossing --------------------- *)

  (* The whole command list rides one trampoline crossing (one pkru
     swap pair, one stack note) through a single op's pipeline, in the
     stripe groups a server drain takes. [on_op i r] fires after op [i]
     fully completed inside the library — an application-level ack:
     every op acked before a mid-batch kill is still readable after
     recovery; the op in flight may have been torn and dropped. *)
  let crossing ?slot ?on_op name t (cmds : P.command list) =
    match cmds with
    | [] -> []
    | cmds ->
      span_root name @@ fun () ->
      Option.iter (bind_capability t) slot;
      Hodor.Trampoline.call_batch t.lib ~ops:(List.length cmds) (fun () ->
        List.map snd (run ?slot ?on_op ~batch:true t (List.map door cmds)))

  let batch ?slot ?on_op t cmds = crossing ?slot ?on_op "batch" t cmds

  (* Multi-get is a batch of one-key gets: an all-get run, so with the
     seqlock read path on it holds no stripes at all. *)
  let mget t keys : (string * Mc_core.Store.get_result) list =
    Typed.hits (crossing "mget" t (List.map (fun k -> P.Get [ k ]) keys))

  (* Scoped keys are the lookup keys, so the optimistic read path stays
     inside the namespace; hits come back under their unscoped names. *)
  let tenant_mget t slot keys =
    Typed.hits
      (crossing ~slot "tenant_mget" t (List.map (fun k -> P.Get [ k ]) keys))

  (* ---- Bookkeeping process duties ------------------------------------ *)

  (* Intermittent cleaning (§3.2): run in the bookkeeping process. *)
  let start_cleaner ?(interval_ns = 1_000_000) t =
    match t.cleaner with
    | Some _ -> ()
    | None ->
      Atomic.set t.stop_cleaner false;
      let th =
        S.spawn ~name:"memcached-bk.cleaner" (fun () ->
          Process.with_process t.owner (fun () ->
            while not (Atomic.get t.stop_cleaner) do
              enter t (fun () ->
                Store.maintain t.store;
                ignore (Store.reap_expired t.store);
                ignore (Store.maybe_resize t.store));
              S.sleep_ns interval_ns
            done))
      in
      t.cleaner <- Some th

  let stop_cleaner t =
    match t.cleaner with
    | None -> ()
    | Some th ->
      Atomic.set t.stop_cleaner true;
      S.join th;
      t.cleaner <- None

  let maintain t = enter t (fun () -> Store.maintain t.store)

  (* Post-kill repair (bookkeeping process, at quiescence): releases
     dead threads' locks, drops torn items, reclaims their memory and
     re-admits callers. Safe to run even when no trampoline observed
     the kill (the library is still [Healthy]). *)
  let recover t = Hodor.Library.recover t.lib

  (* Table resize (the paper's background process had this disabled;
     see Store.resize). Run by the bookkeeping process. *)
  let resize t = enter t (fun () -> Store.resize t.store)

  let maybe_resize ?lf t = enter t (fun () -> Store.maybe_resize ?lf t.store)

  let fold_keys t f init = enter t (fun () -> Store.fold_keys t.store f init)

  let reap_expired ?limit t =
    enter t (fun () -> Store.reap_expired ?limit t.store)

  (* ---- The hybrid deployment of §6 -----------------------------------

     "There is no reason ... not to allow the memcached background
     process to provide a socket-based interface for remote clients
     while still permitting local clients to use the Hodor interface."
     The bookkeeping process serves its own shared store over sockets;
     its worker threads enter the store through the same trampolines
     as any local client, so the protection story is unchanged. *)

  (* ---- Shared-ring transport (the heap-owner side) -------------------

     Ring mode replaces the per-message socket hand-off with
     per-connection submission/completion rings carved out of this
     same shared heap: the client enqueues into pages sealed under a
     connection-private vkey (it can fill its own rings, never touch
     library state or a neighbour's rings), and the server drains
     whole windows through one batch crossing. The pairs are recorded
     in the [root_rings] directory so the recovery protocol finds
     them. *)

  let ring_dir t =
    Region.kernel_mode (fun () ->
      match Ralloc.get_root t.heap root_rings with
      | 0 ->
        let dir = Ralloc.alloc t.heap Ring_dir.bytes in
        Region.fill t.region ~off:dir ~len:Ring_dir.bytes '\000';
        Ralloc.set_root t.heap root_rings dir;
        dir
      | dir -> dir)

  let ring_ctx t (rcfg : Mc_server.Server.ring_config) : Remote.ring_ctx =
    let dir = ring_dir t in
    let page = Region.page_size in
    (* page-rounded per ring so the pair's pages can be sealed under
       the connection's vkey without touching heap neighbours; the
       allocation is padded by one page because Ralloc block starts
       are not page-aligned *)
    let span =
      let b =
        Transport.Ring.bytes_for ~slots:rcfg.r_slots
          ~slot_bytes:rcfg.r_slot_bytes
      in
      (b + page - 1) / page * page
    in
    let rc_alloc cid =
      Region.kernel_mode (fun () ->
        Ring_dir.claim t.region dir
        |> Option.map (fun row ->
          let block = Ralloc.alloc t.heap ((2 * span) + page) in
          let sub_base = (block + page - 1) / page * page in
          let comp_base = sub_base + span in
          let ring base =
            Transport.Ring.init t.region ~base ~slots:rcfg.r_slots
              ~slot_bytes:rcfg.r_slot_bytes
          in
          let sub = ring sub_base in
          let comp = ring comp_base in
          (* owner 0: any process of this simulation may bind — the
             capability is the vkey id held in the connection object,
             private to the two endpoints *)
          let vk = Pku.Vpkey.alloc () in
          Pku.Vpkey.attach_retag vk (fun hw ->
            Region.kernel_mode (fun () ->
              Region.tag_range t.region ~off:sub_base ~len:(2 * span)
                ~pkey:hw));
          Ring_dir.publish t.region row [ cid; block; sub_base; comp_base ];
          { T.ra_sub = sub; ra_comp = comp; ra_vkey = vk }))
    in
    let rc_free cid (ra : T.ring_attach) =
      Region.kernel_mode (fun () ->
        match Ring_dir.release t.region dir ~cid with
        | None -> ()
        | Some (block, sub_base) ->
          (* retire the vkey (quarantines the pages), hand them back to
             the library's own key, free the block *)
          Pku.Vpkey.free ra.T.ra_vkey;
          Region.tag_range t.region ~off:sub_base ~len:(2 * span)
            ~pkey:(Hodor.Library.pkey t.lib);
          Ralloc.free t.heap block)
    in
    { Remote.rc_cfg = rcfg; rc_alloc; rc_free }

  let serve_remote ?(cfg = Mc_server.Server.default_config) ?assign_tenant
      ?rings t ~name =
    let wrap =
      { Mc_server.Server.wrap =
          (fun ~ops f ->
            Process.with_process t.owner (fun () ->
              Hodor.Trampoline.call_batch t.lib ~ops f)) }
    in
    let ring_ctx = Option.map (ring_ctx t) rings in
    Remote.start_with ~cfg:{ cfg with store = Store.config t.store } ~wrap
      ~tenants:t.tenants ?assign_tenant ~surfaces:(Lazy.force t.surfaces) ?ring_ctx
      ~store:t.store ~name ()

  let stop_remote srv = Remote.stop srv

  (* Shutdown (§3.2): flush all updates back to the underlying file so
     a restarted store comes up with its contents intact. *)
  let shutdown t ~disk_path =
    stop_cleaner t;
    Region.kernel_mode (fun () -> Store.detach t.store);
    Ralloc.flush t.heap ~path:disk_path;
    Simos.Sim_fs.unlink t.path;
    Hodor.Library.release t.lib;
    (* The counter cells and the flight-recorder block lived in this
       heap; don't leave the process-wide backends pointing into a
       detached region. Both were flushed with the heap and reappear on
       restart. *)
    Telemetry.Counters.reset_backend ();
    Telemetry.Flight.reset_backend ()
end
