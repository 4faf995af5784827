(** Multi-tenancy: the persisted registry, per-tenant namespaces and
    quotas through Plib, vault capability protection, per-tenant stats
    over both wire codecs, and a seeded cross-tenant isolation sweep
    under the deterministic VM. *)

module Cl = Core.Client.Make (Platform.Real_sync)
module Plib = Cl.Plib
module Process = Simos.Process
module Store = Mc_core.Store
module Tenant = Mc_core.Tenant
module Region = Shm.Region
module T = Cl.T
module P = Mc_protocol.Types

let small_cfg =
  { Store.default_config with hashpower = 8; lock_count = 8; lru_count = 8;
    stats_slots = 4 }

let fresh_id = ref 0

let with_plib f =
  Machine.run (Machine.create ()) @@ fun () ->
  incr fresh_id;
  let owner = Process.make ~uid:1000 "tenant-bk" in
  let path = Printf.sprintf "/shm/tenant-test-%d" !fresh_id in
  let p =
    Plib.create ~store_cfg:small_cfg ~path ~size:(8 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (Plib.library p);
      Pku.Pkru.reset_thread ())
    (fun () -> f p ~owner)

let as_uid uid f =
  let proc = Process.make ~uid (Printf.sprintf "tenant-u%d" uid) in
  Process.with_process proc f

let has_sub ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- registry mechanics (raw block in a scratch region) --------------- *)

let with_registry f =
  let r =
    Region.create ~name:"tenant-reg-scratch" ~size:(64 * 1024) ~pkey:0 ()
  in
  f (Tenant.format r ~base:64 ~max:8) r

let test_registry_crud () =
  with_registry @@ fun reg r ->
  let a = Tenant.register reg ~name:"alpha" ~uid:101 ~byte_quota:1000
      ~item_quota:10 in
  let b = Tenant.register reg ~name:"beta" ~uid:102 ~byte_quota:0
      ~item_quota:0 in
  Alcotest.(check bool) "distinct slots" true (a <> b);
  Alcotest.(check int) "two active" 2 (Tenant.count_active reg);
  Alcotest.(check (option int)) "find alpha" (Some a) (Tenant.find reg "alpha");
  Alcotest.(check (option int)) "find nobody" None (Tenant.find reg "gamma");
  Alcotest.(check string) "name" "alpha" (Tenant.name_of reg a);
  Alcotest.(check int) "uid" 101 (Tenant.uid_of reg a);
  Alcotest.(check int) "byte quota" 1000 (Tenant.byte_quota reg a);
  Alcotest.(check string) "prefix" "alpha/" (Tenant.prefix reg a);
  Alcotest.(check string) "scope" "alpha/k" (Tenant.scope reg a "k");
  Alcotest.(check (option int)) "owner of scoped key" (Some a)
    (Tenant.owner_slot_of_key reg "alpha/k");
  Alcotest.(check (option int)) "unscoped key owned by nobody" None
    (Tenant.owner_slot_of_key reg "alphak");
  (* a reattach sees the same membership *)
  let reg' = Tenant.attach r ~base:64 in
  Alcotest.(check (option int)) "attach finds beta" (Some b)
    (Tenant.find reg' "beta")

let test_registry_rejects () =
  with_registry @@ fun reg _ ->
  ignore (Tenant.register reg ~name:"dup" ~uid:1 ~byte_quota:0 ~item_quota:0);
  let rejected name =
    match Tenant.register reg ~name ~uid:1 ~byte_quota:0 ~item_quota:0 with
    | _ -> Alcotest.fail (Printf.sprintf "name %S must be rejected" name)
    | exception Invalid_argument _ -> ()
  in
  rejected "dup";
  rejected "";
  rejected "with/slash";
  rejected "with space";
  rejected "ctrl\001byte";
  rejected (String.make (Tenant.max_name + 1) 'x');
  (* registry full *)
  for i = 2 to 8 do
    ignore
      (Tenant.register reg ~name:(Printf.sprintf "t%d" i) ~uid:i
         ~byte_quota:0 ~item_quota:0)
  done;
  rejected "overflow"

let test_registry_quota_accounting () =
  with_registry @@ fun reg _ ->
  let a = Tenant.register reg ~name:"q" ~uid:7 ~byte_quota:100 ~item_quota:3 in
  Alcotest.(check bool) "fits" false
    (Tenant.would_exceed reg a ~add_bytes:100 ~add_items:3);
  Alcotest.(check bool) "byte overflow" true
    (Tenant.would_exceed reg a ~add_bytes:101 ~add_items:0);
  Alcotest.(check bool) "item overflow" true
    (Tenant.would_exceed reg a ~add_bytes:0 ~add_items:4);
  Tenant.charge reg a ~bytes:60 ~items:2;
  Alcotest.(check int) "bytes used" 60 (Tenant.bytes_used reg a);
  Alcotest.(check bool) "incremental overflow" true
    (Tenant.would_exceed reg a ~add_bytes:41 ~add_items:0);
  (* negative deltas clamp at zero, never wrap *)
  Tenant.charge reg a ~bytes:(-100) ~items:(-5);
  Alcotest.(check (pair int int)) "clamped" (0, 0)
    (Tenant.bytes_used reg a, Tenant.items_used reg a);
  (* toggle off: quotas are advisory nothing *)
  Defenses.with_off Tenant_quota (fun () ->
    Alcotest.(check bool) "unenforced never exceeds" false
      (Tenant.would_exceed reg a ~add_bytes:10_000 ~add_items:100))

let test_registry_stats_reset_keeps_membership () =
  with_registry @@ fun reg _ ->
  let a = Tenant.register reg ~name:"s" ~uid:9 ~byte_quota:500 ~item_quota:0 in
  Tenant.bump reg a Tenant.Cmd_get;
  Tenant.bump reg a Tenant.Cmd_set;
  Tenant.charge reg a ~bytes:42 ~items:1;
  let kvs = Tenant.stats_kvs reg in
  Alcotest.(check (option string)) "cmd_get rolled up" (Some "1")
    (List.assoc_opt "tenant:s:cmd_get" kvs);
  Alcotest.(check (option string)) "bytes rolled up" (Some "42")
    (List.assoc_opt "tenant:s:bytes" kvs);
  Tenant.reset_stats reg;
  let kvs = Tenant.stats_kvs reg in
  Alcotest.(check (option string)) "tallies zeroed" (Some "0")
    (List.assoc_opt "tenant:s:cmd_get" kvs);
  Alcotest.(check (option string)) "usage untouched" (Some "42")
    (List.assoc_opt "tenant:s:bytes" kvs);
  Alcotest.(check (option string)) "quota untouched" (Some "500")
    (List.assoc_opt "tenant:s:bytes_quota" kvs);
  Alcotest.(check (option int)) "membership untouched" (Some a)
    (Tenant.find reg "s")

(* ---- the Plib tenant surface ------------------------------------------ *)

let test_tenant_ops_and_namespaces () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"ta" ~uid:4001 () in
  let b = Plib.create_tenant p ~name:"tb" ~uid:4002 () in
  Alcotest.(check (option int)) "find_tenant" (Some a)
    (Plib.find_tenant p "ta");
  as_uid 4001 (fun () ->
    Alcotest.(check bool) "a sets" true
      (Plib.tenant_set p a "k" "from-a" = Store.Stored));
  as_uid 4002 (fun () ->
    Alcotest.(check bool) "b sets same unscoped key" true
      (Plib.tenant_set p b "k" "from-b" = Store.Stored));
  as_uid 4001 (fun () ->
    (match Plib.tenant_get p a "k" with
     | Some r -> Alcotest.(check string) "a reads its own" "from-a"
                   r.Store.value
     | None -> Alcotest.fail "a's write lost");
    Alcotest.(check bool) "forged prefix is just a miss" true
      (Plib.tenant_get p a "tb/k" = None);
    Alcotest.(check bool) "a deletes its own" true (Plib.tenant_delete p a "k");
    Alcotest.(check bool) "a's gone" true (Plib.tenant_get p a "k" = None));
  as_uid 4002 (fun () ->
    match Plib.tenant_get p b "k" with
    | Some r ->
      Alcotest.(check string) "b's copy untouched" "from-b" r.Store.value
    | None -> Alcotest.fail "b's write lost to a's delete")

let test_tenant_capability_binding () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"cap" ~uid:4100 () in
  (* Only the owner's euid (or root) may exercise the namespace.  The
     refusal must happen at the door, before the crossing: a raw
     Permission_denied, not a wrapped in-call failure — otherwise one
     denied foreign attempt would poison the library for the owner. *)
  as_uid 4199 (fun () ->
    match Plib.tenant_set p a "x" "nope" with
    | _ -> Alcotest.fail "foreign uid must not bind the capability"
    | exception Pku.Vpkey.Permission_denied _ -> ());
  as_uid 4100 (fun () ->
    Alcotest.(check bool) "owner binds and writes" true
      (Plib.tenant_set p a "x" "yes" = Store.Stored))

let test_vault_readable_only_under_owner_key () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"va" ~uid:4201 () in
  let b = Plib.create_tenant p ~name:"vb" ~uid:4202 () in
  let vault s =
    match Plib.vault p s with Some v -> v | None -> Alcotest.fail "no vault"
  in
  let va = vault a and vb = vault b in
  let vk s =
    Region.kernel_mode (fun () -> Tenant.vkey_of (Plib.tenants p) s)
  in
  (* a window on tenant a's capability: its vault opens, b's stays
     sealed *)
  Pku.Vpkey.with_grant ~owner:4201 (vk a) (fun _ ->
    Alcotest.(check string) "a's vault readable under a's key" "vault:va"
      (Region.read_string va ~off:8 ~len:8);
    match Region.read_string vb ~off:8 ~len:8 with
    | _ -> Alcotest.fail "b's vault must be sealed to a"
    | exception Pku.Fault.Protection_fault _ -> ());
  (match Region.read_string va ~off:8 ~len:8 with
   | _ -> Alcotest.fail "vault must seal when the window closes"
   | exception Pku.Fault.Protection_fault _ -> ());
  (* a cannot open a window on b's capability *)
  match Pku.Vpkey.with_grant ~owner:4201 (vk b) ignore with
  | () -> Alcotest.fail "cross-tenant window must be denied"
  | exception Pku.Vpkey.Permission_denied _ -> ()

let test_quota_eviction_is_tenant_local () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"qa" ~uid:4301
      ~byte_quota:(8 * 1024) () in
  let b = Plib.create_tenant p ~name:"qb" ~uid:4302 () in
  as_uid 4302 (fun () ->
    Alcotest.(check bool) "b seeds" true
      (Plib.tenant_set p b "keep" "b-acked" = Store.Stored));
  as_uid 4301 (fun () ->
    let v = String.make 500 'a' in
    for i = 0 to 39 do
      Alcotest.(check bool)
        (Printf.sprintf "a's set %d lands (own eviction makes room)" i)
        true
        (Plib.tenant_set p a (Printf.sprintf "f%d" i) v = Store.Stored)
    done;
    let bytes, items = Plib.tenant_usage p a in
    Alcotest.(check bool) "a capped by quota" true (bytes <= 8 * 1024);
    Alcotest.(check bool) "a kept a working set" true (items > 0));
  as_uid 4302 (fun () ->
    match Plib.tenant_get p b "keep" with
    | Some r -> Alcotest.(check string) "b untouched" "b-acked" r.Store.value
    | None -> Alcotest.fail "a's quota churn evicted b's item");
  (* an item that can never fit is refused, not force-fed, and the
     refusal allocates nothing: the quota is decided before the item is *)
  let used () = Region.kernel_mode (fun () -> Ralloc.used_bytes (Plib.heap p)) in
  let before = used () in
  as_uid 4301 (fun () ->
    Alcotest.(check bool) "oversized single item refused" true
      (Plib.tenant_set p a "big" (String.make 9000 'x') = Store.No_memory));
  Alcotest.(check int) "the refusal leaves heap used bytes as they were"
    before (used ())

let test_tenant_flush_and_mget () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"fa" ~uid:4401 () in
  let b = Plib.create_tenant p ~name:"fb" ~uid:4402 () in
  as_uid 4402 (fun () ->
    ignore (Plib.tenant_set p b "other" "b-still-here"));
  as_uid 4401 (fun () ->
    for i = 0 to 4 do
      ignore (Plib.tenant_set p a (Printf.sprintf "m%d" i) (string_of_int i))
    done;
    let hits = Plib.tenant_mget p a [ "m0"; "m3"; "missing"; "m4" ] in
    Alcotest.(check int) "mget hits" 3 (List.length hits);
    Alcotest.(check bool) "mget keys are unscoped" true
      (List.mem_assoc "m3" (List.map (fun (k, r) -> (k, r.Store.value)) hits));
    Alcotest.(check int) "flush sweeps own namespace" 5
      (Plib.tenant_flush p a);
    Alcotest.(check bool) "flushed" true (Plib.tenant_get p a "m0" = None));
  as_uid 4402 (fun () ->
    Alcotest.(check bool) "b survives a's flush" true
      (Plib.tenant_get p b "other" <> None))

let test_stats_tenants_rollup () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"st" ~uid:4501 ~byte_quota:4096 () in
  as_uid 4501 (fun () ->
    ignore (Plib.tenant_set p a "k" "v");
    ignore (Plib.tenant_get p a "k");
    ignore (Plib.tenant_get p a "miss"));
  let kvs = Plib.stats_tenants p in
  let v k = List.assoc_opt ("tenant:st:" ^ k) kvs in
  Alcotest.(check (option string)) "cmd_get" (Some "2") (v "cmd_get");
  Alcotest.(check (option string)) "get_hits" (Some "1") (v "get_hits");
  Alcotest.(check (option string)) "cmd_set" (Some "1") (v "cmd_set");
  Alcotest.(check (option string)) "bytes_quota" (Some "4096")
    (v "bytes_quota");
  Alcotest.(check bool) "items tracked" true (v "items" = Some "1")

(* ---- the socket path: connection-bound identity, both codecs ---------- *)

let serve ?rings ~protocol ~assign p name =
  let scfg =
    { Mc_server.Server.default_config with
      workers = 1; protocol; store = small_cfg }
  in
  Plib.serve_remote ~cfg:scfg ?rings ~assign_tenant:assign p ~name

let queue_assign names =
  let q = ref names in
  fun _cid ->
    match !q with
    | [] -> None
    | x :: tl ->
      q := tl;
      Some x

let test_server_ascii_tenants () =
  with_plib @@ fun p ~owner:_ ->
  ignore (Plib.create_tenant p ~name:"ta" ~uid:4601 ());
  ignore (Plib.create_tenant p ~name:"tb" ~uid:4602 ());
  let srv =
    serve ~protocol:Mc_server.Server.Ascii
      ~assign:(queue_assign [ "ta"; "tb" ])
      p "tenant-ascii-srv"
  in
  Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
  let ca = T.connect ~name:"tenant-ascii-srv" in
  let cb = T.connect ~name:"tenant-ascii-srv" in
  let rpc c payload =
    T.client_send c payload;
    T.client_recv c
  in
  Alcotest.(check bool) "a stores" true
    (has_sub ~needle:"STORED" (rpc ca "set k 0 0 6\r\nfrom-a\r\n"));
  Alcotest.(check bool) "b misses a's key" false
    (has_sub ~needle:"from-a" (rpc cb "get k\r\n"));
  let got = rpc ca "get k\r\n" in
  Alcotest.(check bool) "a hits its own, unscoped name" true
    (has_sub ~needle:"VALUE k 0 6" got && has_sub ~needle:"from-a" got);
  Alcotest.(check bool) "forged prefix misses" false
    (has_sub ~needle:"from-a" (rpc cb "get ta/k\r\n"));
  Alcotest.(check bool) "flush_all refused on tenant conn" true
    (has_sub ~needle:"ERROR" (rpc cb "flush_all\r\n"));
  let stats = rpc ca "stats tenants\r\n" in
  Alcotest.(check bool) "rollup lists ta" true
    (has_sub ~needle:"tenant:ta:cmd_get" stats);
  Alcotest.(check bool) "rollup lists tb" true
    (has_sub ~needle:"tenant:tb:cmd_get" stats);
  ignore (rpc ca "stats reset\r\n");
  let stats = rpc ca "stats tenants\r\n" in
  Alcotest.(check bool) "reset keeps membership" true
    (has_sub ~needle:"STAT tenant:ta:cmd_get 0" stats);
  Alcotest.(check (option int)) "registry intact after reset" (Some 1)
    (Plib.find_tenant p "tb")

let test_server_binary_tenants () =
  with_plib @@ fun p ~owner:_ ->
  ignore (Plib.create_tenant p ~name:"ba" ~uid:4701 ());
  ignore (Plib.create_tenant p ~name:"bb" ~uid:4702 ());
  let srv =
    serve ~protocol:Mc_server.Server.Binary
      ~assign:(queue_assign [ "ba"; "bb" ])
      p "tenant-bin-srv"
  in
  Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
  let ca = T.connect ~name:"tenant-bin-srv" in
  let cb = T.connect ~name:"tenant-bin-srv" in
  let rpc c cmd =
    T.client_send c (Mc_protocol.Binary.encode_command cmd);
    T.client_recv c
  in
  let set_k =
    P.Set
      { P.key = "k"; flags = 0; exptime = 0; data = "bin-secret-a";
        noreply = false }
  in
  let get_k = P.Getx { g_key = "k"; g_quiet = false; g_withkey = true } in
  ignore (rpc ca set_k);
  Alcotest.(check bool) "binary: a reads its own" true
    (has_sub ~needle:"bin-secret-a" (rpc ca get_k));
  Alcotest.(check bool) "binary: b misses a's key" false
    (has_sub ~needle:"bin-secret-a" (rpc cb get_k));
  Alcotest.(check bool) "binary: forged prefix misses" false
    (has_sub ~needle:"bin-secret-a"
       (rpc cb
          (P.Getx { g_key = "ba/k"; g_quiet = false; g_withkey = true })));
  let stats = rpc ca (P.Stats (Some "tenants")) in
  Alcotest.(check bool) "binary stats tenants rolls up" true
    (has_sub ~needle:"tenant:ba:cmd_get" stats
     && has_sub ~needle:"tenant:bb:cmd_get" stats)

(* Online quota enforcement on the socket path: the executor's store
   arm consults the tenant registry before admitting bytes, evicting
   tenant-locally to make room, and refuses what can never fit — same
   policy the trampoline path enforces, now for remote clients. The
   same assertions run over the legacy per-message transport and the
   shared-ring transport: enforcement lives below both. *)
let server_quota_enforcement ~rings () =
  with_plib @@ fun p ~owner:_ ->
  ignore (Plib.create_tenant p ~name:"qs" ~uid:4801 ~byte_quota:4096 ());
  ignore (Plib.create_tenant p ~name:"qo" ~uid:4802 ());
  let scfg =
    { Mc_server.Server.default_config with
      workers = 1; protocol = Mc_server.Server.Ascii; store = small_cfg }
  in
  let rings = if rings then Some Mc_server.Server.default_ring_config
    else None in
  let name = "tenant-quota-srv" ^ if rings <> None then "-rings" else "" in
  let srv =
    Plib.serve_remote ~cfg:scfg ?rings
      ~assign_tenant:(queue_assign [ "qs"; "qo" ])
      p ~name
  in
  Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
  let cs = T.connect ~name in
  let co = T.connect ~name in
  let rpc c payload =
    T.client_send c payload;
    T.client_recv c
  in
  Alcotest.(check bool) "bystander tenant seeds" true
    (has_sub ~needle:"STORED" (rpc co "set keep 0 0 7\r\nqo-safe\r\n"));
  (* Churn well past the quota: every set lands because the tenant's
     own LRU gives ground, and usage stays capped the whole time. *)
  let v = String.make 300 'q' in
  for i = 0 to 29 do
    Alcotest.(check bool)
      (Printf.sprintf "set %d admitted via tenant-local eviction" i)
      true
      (has_sub ~needle:"STORED"
         (rpc cs (Printf.sprintf "set f%d 0 0 300\r\n%s\r\n" i v)))
  done;
  let slot = Option.get (Plib.find_tenant p "qs") in
  let bytes, items = Plib.tenant_usage p slot in
  Alcotest.(check bool)
    (Printf.sprintf "usage %dB capped by the 4096B quota" bytes)
    true (bytes <= 4096);
  Alcotest.(check bool) "a working set survives" true (items > 0);
  (* An item that can never fit is refused online, not force-fed. *)
  Alcotest.(check bool) "oversized item refused with SERVER_ERROR" true
    (has_sub ~needle:"SERVER_ERROR out of memory"
       (rpc cs
          (Printf.sprintf "set big 0 0 6000\r\n%s\r\n" (String.make 6000 'x'))));
  (* The churn never spilled into the other namespace. *)
  Alcotest.(check bool) "bystander untouched by the churn" true
    (has_sub ~needle:"qo-safe" (rpc co "get keep\r\n"))

let test_server_quota_legacy () = server_quota_enforcement ~rings:false ()

let test_server_quota_rings () = server_quota_enforcement ~rings:true ()

(* A reply within a few seconds, or a failed check: a worker that died
   mid-request must fail the test, not hang it. *)
let recv_within c =
  let rec go tries =
    match Platform.Real_sync.try_recv c.T.reply with
    | Some m -> m
    | None when tries > 0 ->
      Platform.Real_sync.sleep_ns 10_000_000;
      go (tries - 1)
    | None -> Alcotest.fail "no reply: the server's worker died"
  in
  go 500

(* Two live handles in one process: each server runs tenancy against
   the registry and store of the handle that started it, never against
   whichever handle was created last. *)
let test_server_two_handles () =
  with_plib @@ fun p ~owner ->
  ignore (Plib.create_tenant p ~name:"h1" ~uid:4901 ~byte_quota:4096 ());
  incr fresh_id;
  let path2 = Printf.sprintf "/shm/tenant-test-%d" !fresh_id in
  let p2 =
    Plib.create ~store_cfg:small_cfg ~path:path2 ~size:(8 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path2;
      Hodor.Library.release (Plib.library p2))
  @@ fun () ->
  ignore (Plib.create_tenant p2 ~name:"h2" ~uid:4902 ());
  let name = "tenant-two-handles-srv" in
  let srv =
    serve ~protocol:Mc_server.Server.Ascii ~assign:(fun _ -> Some "h1") p name
  in
  Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
  let c = T.connect ~name in
  let rpc payload =
    T.client_send c payload;
    recv_within c
  in
  let v = String.make 300 'w' in
  for i = 0 to 29 do
    Alcotest.(check bool)
      (Printf.sprintf "set %d stored" i)
      true
      (has_sub ~needle:"STORED"
         (rpc (Printf.sprintf "set w%d 0 0 300\r\n%s\r\n" i v)))
  done;
  let bytes, _ = Plib.tenant_usage p (Option.get (Plib.find_tenant p "h1")) in
  Alcotest.(check bool)
    (Printf.sprintf "usage %dB held to the first handle's 4096B quota" bytes)
    true (bytes <= 4096);
  let stats = rpc "stats tenants\r\n" in
  Alcotest.(check bool) "stats tenants lists the first handle's tenant" true
    (has_sub ~needle:"tenant:h1:cmd_set 30" stats);
  Alcotest.(check bool) "and not the second handle's" false
    (has_sub ~needle:"tenant:h2:" stats)

(* Each server answers `stats` from the handle that started it, with
   only its own ring rows: a ring server that came and went leaves the
   next server's settings whole, and a second handle in the process
   does not take over the first one's heap or tenant rows. *)
let test_server_surfaces_stay_with_their_handle () =
  with_plib @@ fun p ~owner ->
  ignore (Plib.create_tenant p ~name:"sa" ~uid:4981 ());
  let stat c sub k = List.assoc_opt k (Cl.Sock.stats ~arg:sub c) in
  let connect name = Cl.Sock.connect ~name ~protocol:Cl.Sock.Ascii () in
  let ring_name = "tenant-surfaces-ring-srv" in
  let rsrv =
    serve ~rings:Mc_server.Server.default_ring_config
      ~protocol:Mc_server.Server.Ascii ~assign:(fun _ -> None) p ring_name
  in
  Alcotest.(check (option string)) "the ring server serves its geometry"
    (Some "64") (stat (connect ring_name) "settings" "ring_slots");
  Plib.stop_remote rsrv;
  let name = "tenant-surfaces-srv" in
  let srv =
    serve ~protocol:Mc_server.Server.Ascii ~assign:(fun _ -> None) p name
  in
  Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
  let c = connect name in
  Alcotest.(check (option string)) "tenants_active after the ring server"
    (Some "1") (stat c "settings" "tenants_active");
  Alcotest.(check (option string)) "tenants_max after the ring server"
    (Some "64") (stat c "settings" "tenants_max");
  Alcotest.(check (option string)) "no ring rows on a socket server" None
    (stat c "settings" "ring_slots");
  incr fresh_id;
  let path2 = Printf.sprintf "/shm/tenant-test-%d" !fresh_id in
  let p2 =
    Plib.create ~store_cfg:small_cfg ~path:path2 ~size:(8 lsl 20) ~owner ()
  in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path2;
      Hodor.Library.release (Plib.library p2))
  @@ fun () ->
  let served = stat c "heap" "heap_bytes_used" in
  let own =
    Region.kernel_mode (fun () ->
      List.assoc_opt "heap_bytes_used" (Ralloc.heap_kvs (Plib.heap p)))
  in
  let other =
    Region.kernel_mode (fun () ->
      List.assoc_opt "heap_bytes_used" (Ralloc.heap_kvs (Plib.heap p2)))
  in
  Alcotest.(check bool) "the two heaps differ" true (own <> other);
  Alcotest.(check (option string)) "heap_bytes_used is the first handle's" own
    served;
  Alcotest.(check (option string)) "tenants_active is the first handle's"
    (Some "1") (stat c "settings" "tenants_active")

(* Key names with every digit run read as <n>: the shape of a surface,
   whatever its counts, sizes and connection ids. *)
let key_schema kvs =
  let shape k =
    let b = Buffer.create (String.length k) in
    String.iteri
      (fun i ch ->
        match ch with
        | '0' .. '9' ->
          if i = 0 || not (match k.[i - 1] with '0' .. '9' -> true | _ -> false)
          then Buffer.add_string b "<n>"
        | ch -> Buffer.add_char b ch)
      k;
    Buffer.contents b
  in
  List.sort_uniq compare (List.map (fun (k, _) -> shape k) kvs)

(* Every deployment `stats` surface, read through a Plib-backed ring
   server with one bound tenant, has the same key set over both codecs. *)
let test_server_stats_surface_schema () =
  let want =
    [ ( "heap",
        [ "<n>:chunk_size"; "<n>:free_chunks"; "<n>:superblocks";
          "heap_bytes_capacity";
          "heap_bytes_live"; "heap_bytes_used"; "heap_class_<n>_capacity";
          "heap_class_<n>_live"; "heap_class_<n>_superblocks";
          "heap_class_<n>_util"; "heap_ext_frag"; "heap_large_bytes";
          "heap_large_runs"; "heap_largest_free_run_sbs"; "heap_sb_free";
          "heap_sb_fresh"; "heap_sb_large"; "heap_sb_small"; "heap_sb_total";
          "limit_maxbytes"; "total_malloced" ] );
      ( "forensics",
        [ "forensics_class"; "forensics_depth"; "forensics_lanes_with_records";
          "forensics_noted"; "forensics_op"; "forensics_ring_conn";
          "forensics_stripes_held"; "forensics_tenant"; "forensics_torn_lanes";
          "forensics_verdict"; "forensics_victim_lane"; "forensics_well_formed"
        ] );
      ( "settings",
        [ "evict_batch"; "flight_depth"; "flight_lanes"; "flight_publish_last";
          "flight_trace_slots"; "hashpower"; "lock_count"; "lru_count";
          "optimistic_reads"; "ring_slot_bytes"; "ring_slots";
          "slow_threshold_ns"; "telemetry"; "tenants_active"; "tenants_max";
          "trace_level"; "trace_sample_every" ] );
      ( "rings",
        [ "ring_completions"; "ring_doorbells"; "ring_drain_ops"; "ring_drains";
          "ring_early_reads"; "ring_full_waits"; "ring_kills"; "ring_refused";
          "ring_submits"; "ring_wakes";
          "rings:conn<n>:drains"; "rings:conn<n>:occupancy";
          "rings:conn<n>:ops" ] );
      ( "tenants",
        [ "tenant:sx:bytes"; "tenant:sx:bytes_quota"; "tenant:sx:cmd_get";
          "tenant:sx:cmd_set"; "tenant:sx:evictions"; "tenant:sx:get_hits";
          "tenant:sx:items"; "tenant:sx:items_quota" ] ) ]
  in
  List.iter
    (fun (label, protocol, cproto) ->
      with_plib @@ fun p ~owner:_ ->
      ignore (Plib.create_tenant p ~name:"sx" ~uid:4991 ~byte_quota:4096 ());
      let name = "tenant-schema-srv" in
      let srv =
        serve ~rings:Mc_server.Server.default_ring_config ~protocol
          ~assign:(fun _ -> Some "sx") p name
      in
      Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
      let c = Cl.Sock.connect ~name ~protocol:cproto () in
      ignore (Cl.Sock.set c "k" "v");
      ignore (Cl.Sock.get c "k");
      List.iter
        (fun (sub, keys) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: stats %s keys" label sub)
            keys
            (key_schema (Cl.Sock.stats ~arg:sub c)))
        want)
    [ ("ascii", Mc_server.Server.Ascii, Cl.Sock.Ascii);
      ("binary", Mc_server.Server.Binary, Cl.Sock.Binary) ]

(* A connection assigned a name the registry does not hold is refused
   at accept, with a warning, rather than served an unmetered
   namespace that `stats tenants` never lists. *)
let test_server_unknown_tenant_refused () =
  with_plib @@ fun p ~owner:_ ->
  ignore (Plib.create_tenant p ~name:"known" ~uid:4951 ());
  let name = "tenant-ghost-srv" in
  let srv =
    serve ~protocol:Mc_server.Server.Ascii
      ~assign:(queue_assign [ "ghost"; "known" ])
      p name
  in
  Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
  let was_on = Telemetry.Control.on () in
  Telemetry.Control.set_enabled true;
  let refused =
    Fun.protect ~finally:(fun () -> Telemetry.Control.set_enabled was_on)
    @@ fun () ->
    match T.connect ~name with
    | c ->
      for i = 0 to 29 do
        T.client_send c (Printf.sprintf "set g%d 0 0 300\r\n%s\r\n" i
                           (String.make 300 'g'));
        ignore (recv_within c)
      done;
      false
    | exception Failure _ -> true
  in
  let ghost_keys =
    Plib.fold_keys p
      (fun acc key ~nbytes:_ ~exptime:_ ->
        if String.starts_with ~prefix:"ghost/" key then key :: acc else acc)
      []
  in
  Alcotest.(check (list string)) "nothing lands under the unknown name" []
    ghost_keys;
  Alcotest.(check bool) "connection refused at accept" true refused;
  Alcotest.(check bool) "the refusal is traced as a warning" true
    (List.exists
       (fun e -> has_sub ~needle:"ghost" e.Telemetry.Trace.msg)
       (Telemetry.Trace.dump ~subsys:"server" ~min_sev:Telemetry.Trace.Warn ()));
  (* the listener keeps serving registered tenants *)
  let c = T.connect ~name in
  T.client_send c "set k 0 0 2\r\nok\r\n";
  Alcotest.(check bool) "next connection served" true
    (has_sub ~needle:"STORED" (recv_within c))

(* Every write arm of a tenant-bound connection accounts for itself:
   after each add, replace, cas, append, prepend, incr, decr and delete
   (hits, misses and refusals alike) the tenant's usage equals a recount
   of the store, over both codecs. *)
let test_server_command_accounting () =
  List.iter
    (fun (label, protocol, cproto) ->
      with_plib @@ fun p ~owner:_ ->
      let slot = Plib.create_tenant p ~name:"ca" ~uid:4971 ~byte_quota:4096 () in
      let name = "tenant-accounting-srv" in
      let srv = serve ~protocol ~assign:(fun _ -> Some "ca") p name in
      Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
      let c = Cl.Sock.connect ~name ~protocol:cproto () in
      let module S = Cl.Sock in
      let cas_of k =
        match S.get c k with Some r -> r.Store.cas | None -> 0L
      in
      let stored r = r = Store.Stored in
      let counted = function Store.Counter _ -> true | _ -> false in
      let steps =
        [ ("add new", fun () -> stored (S.add c "a" "alpha"));
          ("add existing", fun () -> not (stored (S.add c "a" "other")));
          ("replace", fun () -> stored (S.replace c "a" (String.make 200 'r')));
          ("replace missing", fun () -> not (stored (S.replace c "zz" "z")));
          ("append", fun () -> stored (S.append c "a" "++"));
          ("prepend", fun () -> stored (S.prepend c "a" "--"));
          ("append missing", fun () -> not (stored (S.append c "zz" "z")));
          ("cas", fun () -> stored (S.cas c ~cas:(cas_of "a") "a" "cas'd"));
          ("cas stale",
           fun () ->
             let stale = cas_of "a" in
             ignore (S.set c "a" "moved");
             not (stored (S.cas c ~cas:stale "a" "late")));
          ("cas missing", fun () -> not (stored (S.cas c ~cas:1L "zz" "z")));
          ("set counter", fun () -> stored (S.set c "n" "9"));
          ("incr widens", fun () -> S.incr c "n" 1L = Store.Counter 10L);
          ("decr narrows", fun () -> S.decr c "n" 5L = Store.Counter 5L);
          ("incr outgrows its block",
           fun () -> counted (S.incr c "n" 1_000_000_000_000_000_000L));
          ("incr missing", fun () -> not (counted (S.incr c "zz" 1L)));
          ("delete", fun () -> S.delete c "a");
          ("delete missing", fun () -> not (S.delete c "a"));
          ("delete counter", fun () -> S.delete c "n");
          ("set again", fun () -> stored (S.set c "b" "beta"));
          ("append past the quota",
           fun () -> not (stored (S.append c "b" (String.make 5000 'x')))) ]
      in
      List.iter
        (fun (step, run) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" label step) true (run ());
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: usage = recount after %s" label step)
            (Region.kernel_mode (fun () -> Plib.tenant_recount p)).(slot)
            (Plib.tenant_usage p slot))
        steps)
    [ ("ascii", Mc_server.Server.Ascii, Cl.Sock.Ascii);
      ("binary", Mc_server.Server.Binary, Cl.Sock.Binary) ]

(* ---- one op stream through every tenant front end --------------------- *)

type dop =
  | D_set of string * string
  | D_get of string
  | D_delete of string
  | D_touch of string

(* Sets of 100-400 B over 24 keys against a 4096 B quota force
   tenant-local eviction throughout; one item larger than the whole
   quota must be refused on every front end. A tail then touches keys
   between evicting sets, so a touch's hit or miss, and the LRU place
   it leaves, must agree too. *)
let diff_stream ~seed =
  let rng = Random.State.make [| seed |] in
  let key () = Printf.sprintf "k%d" (Random.State.int rng 24) in
  let body =
    List.init 160 (fun i ->
      if i = 80 then D_set ("huge", String.make 5000 'h')
      else
        let k = key () in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
          D_set
            (k, String.make (100 + Random.State.int rng 300)
                  (Char.chr (Char.code 'a' + (i mod 26))))
        | 5 | 6 | 7 | 8 -> D_get k
        | _ -> D_delete k)
  in
  let tail =
    List.init 40 (fun i ->
      let k = key () in
      match i mod 4 with
      | 0 | 1 -> D_touch k
      | 2 -> D_set (k, String.make 300 't')
      | _ -> D_get k)
  in
  body @ tail

type front = {
  f_set : string -> string -> Store.store_result;
  f_get : string -> string option;
  f_delete : string -> bool;
  f_touch : string -> int -> bool;
}

(* A refused set is "not stored" on every front end: the binary codec
   has no out-of-memory status and answers it as a plain failure. *)
let outcome f = function
  | D_set (k, v) ->
    if f.f_set k v = Store.Stored then "stored" else "not stored"
  | D_get k ->
    (match f.f_get k with Some v -> "hit " ^ v | None -> "miss")
  | D_delete k -> if f.f_delete k then "deleted" else "not found"
  | D_touch k -> if f.f_touch k 3600 then "touched" else "not found"

(* One op as the protocol command a batch carries. *)
let command = function
  | D_set (k, v) ->
    P.Set { P.key = k; flags = 0; exptime = 0; data = v; noreply = false }
  | D_get k -> P.Gets [ k ]
  | D_delete k -> P.Delete (k, false)
  | D_touch k -> P.Touch (k, 3600, false)

(* A front end over replies already in hand, decoded as the scalar ops
   decode theirs. *)
let replay (replies : P.response Queue.t) =
  let rt _ = Queue.pop replies in
  { f_set = (fun k v -> Core.Typed.set rt k v);
    f_get =
      (fun k -> Option.map (fun r -> r.Store.value) (Core.Typed.get rt k));
    f_delete = Core.Typed.delete rt;
    f_touch = Core.Typed.touch rt }

(* Each front end gets a fresh handle and runs the whole stream as
   tenant "dt"; the result is the per-op outcomes, the tenant's usage
   and its `stats tenants` rows. *)
let run_front ~seed how =
  with_plib @@ fun p ~owner:_ ->
  let slot = Plib.create_tenant p ~name:"dt" ~uid:4961 ~byte_quota:4096 () in
  let run f = List.map (outcome f) (diff_stream ~seed) in
  let outcomes =
    match how with
    | `Plib ->
      as_uid 4961 (fun () ->
        run
          { f_set = (fun k v -> Plib.tenant_set p slot k v);
            f_get =
              (fun k -> Option.map (fun r -> r.Store.value)
                          (Plib.tenant_get p slot k));
            f_delete = (fun k -> Plib.tenant_delete p slot k);
            f_touch = (fun k e -> Plib.tenant_touch p slot k e) })
    | `Batch ->
      (* chunks of 8, each one [Plib.batch] crossing bound to the tenant *)
      let rec chunks ops =
        if ops = [] then []
        else
          let chunk = List.filteri (fun i _ -> i < 8) ops in
          let replies =
            as_uid 4961 (fun () -> Plib.batch ~slot p (List.map command chunk))
          in
          let front = replay (Queue.of_seq (List.to_seq replies)) in
          let here = List.map (outcome front) chunk in
          here @ chunks (List.filteri (fun i _ -> i >= 8) ops)
      in
      chunks (diff_stream ~seed)
    | `Socket (protocol, rings) ->
      let name = Printf.sprintf "tenant-diff-srv-%d" !fresh_id in
      let srv =
        serve ?rings ~protocol ~assign:(fun _ -> Some "dt") p name
      in
      Fun.protect ~finally:(fun () -> Plib.stop_remote srv) @@ fun () ->
      let c =
        Cl.Sock.connect ~name
          ~protocol:
            (match protocol with
             | Mc_server.Server.Ascii -> Cl.Sock.Ascii
             | Mc_server.Server.Binary -> Cl.Sock.Binary)
          ()
      in
      run
        { f_set = (fun k v -> Cl.Sock.set c k v);
          f_get = (fun k -> Option.map (fun r -> r.Store.value) (Cl.Sock.get c k));
          f_delete = (fun k -> Cl.Sock.delete c k);
          f_touch = (fun k e -> Cl.Sock.touch c k e) }
  in
  let rows =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"tenant:dt:" k)
      (Plib.stats_tenants p)
  in
  (outcomes, Plib.tenant_usage p slot, rows)

let test_differential_front_ends () =
  let seed = 7 in
  let ref_outcomes, ref_usage, ref_rows = run_front ~seed `Plib in
  Alcotest.(check bool) "the stream evicts tenant-locally" true
    (List.exists
       (fun (k, v) -> k = "tenant:dt:evictions" && int_of_string v > 0)
       ref_rows);
  Alcotest.(check string) "the oversize set is refused" "not stored"
    (List.nth ref_outcomes 80);
  Alcotest.(check bool) "the tail touches live keys" true
    (List.mem "touched" ref_outcomes);
  List.iter
    (fun (label, how) ->
      let outcomes, usage, rows = run_front ~seed how in
      List.iteri
        (fun i (want, got) ->
          if want <> got then
            Alcotest.failf "%s: op %d is %S through Plib but %S here" label i
              want got)
        (List.combine ref_outcomes outcomes);
      Alcotest.(check (pair int int)) (label ^ ": tenant_usage") ref_usage usage;
      Alcotest.(check (list (pair string string)))
        (label ^ ": stats tenants rows") ref_rows rows)
    [ ("plib batch", `Batch);
      ("socket ascii", `Socket (Mc_server.Server.Ascii, None));
      ("socket binary", `Socket (Mc_server.Server.Binary, None));
      ("ring binary",
       `Socket
         (Mc_server.Server.Binary, Some Mc_server.Server.default_ring_config)) ]

(* A refused registration is the caller's error, not a crash inside the
   library: a duplicate name, a name with a slash and a 65th tenant are
   each refused with [Invalid_argument], and the library serves on. *)
let test_refused_create_tenant_keeps_library () =
  with_plib @@ fun p ~owner:_ ->
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s was registered" what
    | exception Invalid_argument _ -> ()
  in
  ignore (Plib.create_tenant p ~name:"t0" ~uid:4970 ());
  refused "a duplicate" (fun () ->
    Plib.create_tenant p ~name:"t0" ~uid:4970 ());
  refused "a slash" (fun () -> Plib.create_tenant p ~name:"a/b" ~uid:4970 ());
  for i = 1 to Tenant.max_tenants (Plib.tenants p) - 1 do
    ignore (Plib.create_tenant p ~name:(Printf.sprintf "t%d" i) ~uid:4970 ())
  done;
  refused "a 65th tenant" (fun () ->
    Plib.create_tenant p ~name:"one-too-many" ~uid:4970 ());
  Alcotest.(check bool) "the library still stores" true
    (Plib.set p "k" "v" = Store.Stored)

(* ---- seeded cross-tenant isolation sweep under the VM ----------------- *)

module VCl = Core.Client.Make (Vm.Sync)
module VPlib = VCl.Plib

let iso_seeds () =
  match Sys.getenv_opt "REDTEAM_SEEDS" with
  | Some s -> (try max 4 (int_of_string s) with _ -> 24)
  | None -> 24

let iso_fresh = ref 0

(* Four tenants race under a perturbed-but-deterministic schedule:
   A churns and mid-run flushes its namespace, B and C run disjoint
   acked workloads through the trampoline, and D runs its acked
   workload remotely — over a ring-transport socket connection, so
   the executor's online quota/namespace enforcement is in the raced
   path too. At quiescence: every surviving acked write is readable
   exactly in its own namespace, nothing migrated, usage equals a
   recomputation, and the vpkey table is consistent. *)
let run_iso ~seed =
  Machine.run (Machine.create ()) @@ fun () ->
  incr iso_fresh;
  let path = Printf.sprintf "/shm/iso-%d-%d" seed !iso_fresh in
  let owner = Process.make ~uid:1000 "iso-bk" in
  let p = VPlib.create ~store_cfg:small_cfg ~path ~size:(4 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (VPlib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      let vm = Vm.create ~sched_seed:seed ~preempt_jitter:60 () in
      let fail = ref [] in
      let model_b : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let model_c : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let model_d : (string, string) Hashtbl.t = Hashtbl.create 16 in
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let sa, sb, sc, sd =
             Process.with_process owner (fun () ->
               ( VPlib.create_tenant p ~name:"ia" ~uid:5001
                   ~byte_quota:(16 * 1024) (),
                 VPlib.create_tenant p ~name:"ib" ~uid:5002 (),
                 VPlib.create_tenant p ~name:"ic" ~uid:5003 (),
                 VPlib.create_tenant p ~name:"id" ~uid:5004
                   ~byte_quota:(8 * 1024) () ))
           in
           let srv_name = Printf.sprintf "iso-srv-%d-%d" seed !iso_fresh in
           let srv =
             VPlib.serve_remote
               ~cfg:
                 { Mc_server.Server.default_config with
                   workers = 1; store = small_cfg }
               ~rings:Mc_server.Server.default_ring_config
               ~assign_tenant:(fun _ -> Some "id")
               p ~name:srv_name
           in
           let dconn = VCl.Sock.connect ~name:srv_name () in
           let tA =
             Vm.Sync.spawn ~name:"ten-a" (fun () ->
               as_uid 5001 (fun () ->
                 for i = 0 to 13 do
                   if i = 7 then ignore (VPlib.tenant_flush p sa)
                   else
                     ignore
                       (VPlib.tenant_set p sa
                          (Printf.sprintf "a%d" (i mod 4))
                          (String.make (50 + (i * 37 mod 200)) 'a'));
                   Vm.Sync.advance 30
                 done))
           in
           let worker name uid slot prefix model =
             Vm.Sync.spawn ~name (fun () ->
               as_uid uid (fun () ->
                 for i = 0 to 13 do
                   let k = Printf.sprintf "%s%d" prefix (i mod 4) in
                   (match i mod 5 with
                    | 4 ->
                      if VPlib.tenant_delete p slot k then
                        Hashtbl.remove model k
                    | 3 -> ignore (VPlib.tenant_get p slot k)
                    | _ ->
                      let v = Printf.sprintf "%s-%d-%d" prefix seed i in
                      if VPlib.tenant_set p slot k v = Store.Stored then
                        Hashtbl.replace model k v);
                   Vm.Sync.advance 30
                 done))
           in
           let tB = worker "ten-b" 5002 sb "b" model_b in
           let tC = worker "ten-c" 5003 sc "c" model_c in
           (* D's workload rides the ring transport; its connection is
              bound to tenant "id", so every key below is scoped by
              the server, and its stores go through the executor's
              online quota arm. *)
           let tD =
             Vm.Sync.spawn ~name:"ten-d" (fun () ->
               for i = 0 to 13 do
                 let k = Printf.sprintf "d%d" (i mod 4) in
                 (match i mod 5 with
                  | 4 ->
                    if VCl.Sock.delete dconn k then Hashtbl.remove model_d k
                  | 3 -> ignore (VCl.Sock.get dconn k)
                  | _ ->
                    let v = Printf.sprintf "d-%d-%d" seed i in
                    if VCl.Sock.set dconn k v = Store.Stored then
                      Hashtbl.replace model_d k v);
                 Vm.Sync.advance 30
               done)
           in
           Vm.Sync.join tA;
           Vm.Sync.join tB;
           Vm.Sync.join tC;
           Vm.Sync.join tD;
           (* quiescence: verify isolation *)
           let note m = fail := m :: !fail in
           Hashtbl.iter
             (fun k v ->
               match VCl.Sock.get dconn k with
               | Some r when r.Store.value = v -> ()
               | _ -> note ("d acked write wrong: " ^ k))
             model_d;
           Hashtbl.iter
             (fun k _ ->
               if VCl.Sock.get dconn k <> None then
                 note ("b key visible through d's connection: " ^ k))
             model_b;
           VPlib.stop_remote srv;
           as_uid 5002 (fun () ->
             Hashtbl.iter
               (fun k v ->
                 match VPlib.tenant_get p sb k with
                 | Some r when r.Store.value = v -> ()
                 | _ -> note ("b acked write wrong: " ^ k))
               model_b;
             Hashtbl.iter
               (fun k _ ->
                 if VPlib.tenant_get p sb k <> None then
                   note ("c key visible through b: " ^ k))
               model_c);
           as_uid 5003 (fun () ->
             Hashtbl.iter
               (fun k v ->
                 match VPlib.tenant_get p sc k with
                 | Some r when r.Store.value = v -> ()
                 | _ -> note ("c acked write wrong: " ^ k))
               model_c;
             Hashtbl.iter
               (fun k _ ->
                 if VPlib.tenant_get p sc k <> None then
                   note ("b key visible through c: " ^ k))
               model_b);
           let reg = VPlib.tenants p in
           Region.kernel_mode (fun () ->
             VPlib.Store.check_invariants (VPlib.store p);
             VPlib.Store.fold_keys (VPlib.store p)
               (fun () key ~nbytes:_ ~exptime:_ ->
                 if Tenant.owner_slot_of_key reg key = None then
                   note ("key outside every namespace: " ^ key))
               ());
           (* usage counters match the store's truth *)
           let usage = Region.kernel_mode (fun () -> VPlib.tenant_recount p) in
           List.iter
             (fun slot ->
               if VPlib.tenant_usage p slot <> usage.(slot) then
                 note (Printf.sprintf "usage drift on slot %d" slot))
             [ sa; sb; sc; sd ];
           Pku.Vpkey.check_invariants ()));
      Vm.run vm;
      match !fail with
      | [] -> ()
      | m :: _ ->
        Alcotest.fail (Printf.sprintf "seed %d: %s" seed m))

let test_iso_sweep () =
  let n = iso_seeds () in
  for seed = 1 to n do
    run_iso ~seed
  done

(* ---- concurrent writers of one tenant --------------------------------- *)

(* Four threads of one tenant race sets of varied sizes and deletes
   (every fifth op) over four shared keys, under a 4 KiB byte quota.
   Sizing, admission and the charge all happen inside the write's own
   store op under the key's stripe, so at quiescence the tenant's usage
   equals a recount of the store on every schedule. [how] picks the
   front end: the trampoline, or four tenant-bound socket connections
   served by four workers. *)
let run_writers_race ~seed how =
  Machine.run (Machine.create ()) @@ fun () ->
  incr iso_fresh;
  let path = Printf.sprintf "/shm/writers-%d-%d" seed !iso_fresh in
  let owner = Process.make ~uid:1000 "writers-bk" in
  let p = VPlib.create ~store_cfg:small_cfg ~path ~size:(4 lsl 20) ~owner () in
  Fun.protect
    ~finally:(fun () ->
      Simos.Sim_fs.unlink path;
      Hodor.Library.release (VPlib.library p);
      Pku.Pkru.reset_thread ())
    (fun () ->
      let vm = Vm.create ~sched_seed:seed ~preempt_jitter:200 () in
      let outcome = ref None in
      ignore
        (Vm.spawn vm ~name:"main" (fun () ->
           let slot =
             Process.with_process owner (fun () ->
               VPlib.create_tenant p ~name:"rw" ~uid:5101 ~byte_quota:4096 ())
           in
           let fronts, stop =
             match how with
             | `Plib ->
               let front =
                 { f_set =
                     (fun k v -> as_uid 5101 (fun () -> VPlib.tenant_set p slot k v));
                   f_get = (fun _ -> None);
                   f_delete =
                     (fun k -> as_uid 5101 (fun () -> VPlib.tenant_delete p slot k));
                   f_touch = (fun _ _ -> false) }
               in
               (List.init 4 (fun _ -> front), ignore)
             | `Socket ->
               let name = Printf.sprintf "writers-srv-%d-%d" seed !iso_fresh in
               let srv =
                 VPlib.serve_remote
                   ~cfg:
                     { Mc_server.Server.default_config with
                       workers = 4; store = small_cfg }
                   ~assign_tenant:(fun _ -> Some "rw")
                   p ~name
               in
               ( List.init 4 (fun _ ->
                   let c = VCl.Sock.connect ~name () in
                   { f_set = VCl.Sock.set c;
                     f_get = (fun _ -> None);
                     f_delete = VCl.Sock.delete c;
                     f_touch = (fun _ _ -> false) }),
                 fun () -> VPlib.stop_remote srv )
           in
           let threads =
             List.mapi
               (fun w f ->
                 Vm.Sync.spawn ~name:(Printf.sprintf "writer-%d" w) (fun () ->
                   for i = 0 to 19 do
                     let k = Printf.sprintf "r%d" (i mod 4) in
                     if i mod 5 = 4 then ignore (f.f_delete k)
                     else
                       ignore
                         (f.f_set k
                            (String.make (20 + ((i * 53 + w * 97) mod 300)) 'w'));
                     Vm.Sync.advance 20
                   done))
               fronts
           in
           List.iter Vm.Sync.join threads;
           stop ();
           outcome :=
             Some
               ( VPlib.tenant_usage p slot,
                 (Region.kernel_mode (fun () -> VPlib.tenant_recount p)).(slot) )));
      Vm.run vm;
      match !outcome with
      | Some (usage, truth) ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "seed %d: usage (bytes, items) = store recount" seed)
          truth usage
      | None -> Alcotest.fail (Printf.sprintf "seed %d: run did not finish" seed))

(* Overwrites within the move interval replace the item in place; the
   tenant's usage must still follow each replace's size delta exactly,
   growing or shrinking, and through a growth that only tenant-local
   eviction can make fit. *)
let test_replace_usage_matches_recount () =
  with_plib @@ fun p ~owner:_ ->
  let a = Plib.create_tenant p ~name:"ra" ~uid:4401 ~byte_quota:4096 () in
  as_uid 4401 (fun () ->
    ignore (Plib.tenant_set p a "other" (String.make 300 'o'));
    List.iteri
      (fun i n ->
        let v = String.make n (Char.chr (Char.code 'a' + i)) in
        Alcotest.(check bool) (Printf.sprintf "replace to %d B" n) true
          (Plib.tenant_set p a "k" v = Store.Stored);
        (match Plib.tenant_get p a "k" with
         | Some r -> Alcotest.(check string) "latest value" v r.Store.value
         | None -> Alcotest.fail "replaced key missing");
        Alcotest.(check (pair int int))
          (Printf.sprintf "usage = recount after %d B" n)
          (Region.kernel_mode (fun () -> Plib.tenant_recount p)).(a)
          (Plib.tenant_usage p a))
      [ 10; 300; 50; 1000; 5; 2000; 100; 3900; 20 ]);
  Region.kernel_mode (fun () -> Plib.Store.check_invariants (Plib.store p))

let test_writers_race_plib () =
  for seed = 1 to 6 do
    run_writers_race ~seed `Plib
  done

let test_writers_race_socket () =
  for seed = 1 to 6 do
    run_writers_race ~seed `Socket
  done

let () =
  Alcotest.run "tenant"
    [ ( "registry",
        [ Alcotest.test_case "crud" `Quick test_registry_crud;
          Alcotest.test_case "rejects" `Quick test_registry_rejects;
          Alcotest.test_case "quota accounting" `Quick
            test_registry_quota_accounting;
          Alcotest.test_case "stats reset keeps membership" `Quick
            test_registry_stats_reset_keeps_membership ] );
      ( "plib",
        [ Alcotest.test_case "ops + namespaces" `Quick
            test_tenant_ops_and_namespaces;
          Alcotest.test_case "capability binding" `Quick
            test_tenant_capability_binding;
          Alcotest.test_case "vault sealed to others" `Quick
            test_vault_readable_only_under_owner_key;
          Alcotest.test_case "quota eviction is tenant-local" `Quick
            test_quota_eviction_is_tenant_local;
          Alcotest.test_case "flush + mget" `Quick test_tenant_flush_and_mget;
          Alcotest.test_case "stats tenants rollup" `Quick
            test_stats_tenants_rollup;
          Alcotest.test_case "replaces keep usage exact" `Quick
            test_replace_usage_matches_recount;
          Alcotest.test_case "a refused tenant keeps the library" `Quick
            test_refused_create_tenant_keeps_library ] );
      ( "server",
        [ Alcotest.test_case "ascii codec" `Quick test_server_ascii_tenants;
          Alcotest.test_case "binary codec" `Quick test_server_binary_tenants;
          Alcotest.test_case "online quota, legacy transport" `Quick
            test_server_quota_legacy;
          Alcotest.test_case "online quota, ring transport" `Quick
            test_server_quota_rings;
          Alcotest.test_case "two live handles" `Quick test_server_two_handles;
          Alcotest.test_case "stats surfaces stay with their handle" `Quick
            test_server_surfaces_stay_with_their_handle;
          Alcotest.test_case "stats surface schema" `Quick
            test_server_stats_surface_schema;
          Alcotest.test_case "unknown tenant refused" `Quick
            test_server_unknown_tenant_refused;
          Alcotest.test_case "every write arm accounts" `Quick
            test_server_command_accounting;
          Alcotest.test_case "differential front ends" `Quick
            test_differential_front_ends ] );
      ( "isolation sweep",
        [ Alcotest.test_case "seeded schedules" `Quick test_iso_sweep ] );
      ( "writer races",
        [ Alcotest.test_case "usage exact through plib" `Quick
            test_writers_race_plib;
          Alcotest.test_case "usage exact through sockets" `Quick
            test_writers_race_socket ] ) ]
