(** The red team: adversarial scenarios run as simulated processes
    against the real stack — loader, trampolines, pkeys, seccomp
    filters, regions, recovery.

    Every scenario runs in two configurations. [~hardening:true] is
    the shipped stack; the unhardened run reverts the corresponding
    fix and must let the attack through — the red-first discipline: an
    attack that does not breach the unhardened stack proves nothing
    about the fix. {!Matrix} runs it with the scenario's [toggle]
    turned off ({!Defenses.with_off}); a structural defense has no
    toggle, and its [~hardening:false] run reproduces the pre-fix
    behavior directly. The attack matrix in DESIGN.md is generated
    from {!all}. *)

module Process = Simos.Process
module Region = Shm.Region
module Library = Hodor.Library
module Loader = Hodor.Loader
module Trampoline = Hodor.Trampoline
module Pkru = Pku.Pkru
module Pkey = Pku.Pkey
module Insn = Pku.Insn

type outcome =
  | Blocked of string  (** the defense held; detail says how *)
  | Breached of string  (** the attacker won; detail says what it got *)

type t = {
  sc_name : string;
  vector : string;  (** the attack, in one line (Garmr taxonomy) *)
  defense : string;  (** what stands in the way when hardened *)
  toggle : Defenses.t option;
  (** the defense the unhardened run turns off, or [None] when the
      fix is structural and [~hardening:false] emulates its absence *)
  run : hardening:bool -> outcome;
}

let outcome_string = function
  | Blocked m -> "BLOCKED: " ^ m
  | Breached m -> "BREACHED: " ^ m

(* A fresh library. Every run has a machine of its own
   ({!Matrix.collect}; a sweep inside a run makes one per step), so
   nothing needs releasing afterwards. *)
let with_lib ?grace_ns ?(owner_uid = 1000) tag f =
  f (Library.create ?grace_ns ~name:tag ~owner_uid ())

(* A page under [lib]'s key, claimed by it, holding [secret]. *)
let secret_region lib tag secret =
  let region =
    Region.create
      ~name:("/shm/rt-" ^ tag)
      ~size:4096 ~pkey:(Library.pkey lib) ()
  in
  Library.protect_region lib region;
  Region.kernel_mode (fun () -> Region.write_string region ~off:0 secret);
  region

(* A page holding [secret], its tag following vkey [vk]'s slot. *)
let vkey_region vk tag secret =
  let region =
    Region.create
      ~name:("/shm/rt-" ^ tag)
      ~size:4096 ~pkey:Pkey.default ()
  in
  Region.kernel_mode (fun () -> Region.write_string region ~off:0 secret);
  Pku.Vpkey.attach_retag vk (fun hw ->
    Region.kernel_mode (fun () ->
      Region.tag_range region ~off:0 ~len:(Region.size region) ~pkey:hw));
  region

(* ---- 1+2: gadget bytes hidden in a data island ---------------------- *)

(* The loader-level scan attack: the binary contains no stray
   pkru-writing {e instruction} — the gadget hides as bytes inside a
   data island (a jump table, a constant), where the legacy
   instruction-granular scan never looks. A hijacked indirect branch
   lands on the bytes and rewrites pkru. *)
let gadget_island kind =
  let kname, vector =
    match kind with
    | `Wrpkru ->
      ("gadget-wrpkru-island",
       "wrpkru byte pattern hidden in a data island; hijacked jump lands on it")
    | `Xrstor ->
      ("gadget-xrstor-island",
       "xrstor byte pattern hidden in a data island; pkru restored from \
        attacker memory")
  in
  { sc_name = kname;
    vector;
    defense = "admission-time byte-granular gadget scan (Loader.admit)";
    toggle = Some Gadget_scan;
    run =
      (fun ~hardening:_ ->
        let island, delta =
          match kind with
          | `Wrpkru ->
            (Gadget.wrpkru_island ~pkru_value:Pkru.all_enabled,
             Gadget.wrpkru_island_gadget_delta)
          | `Xrstor ->
            (Gadget.xrstor_island ~pkru_value:Pkru.all_enabled,
             Gadget.xrstor_island_gadget_delta)
        in
        let b =
          Insn.make
            "evil-app"
            [| Insn.Compute 10; Insn.Data island; Insn.Ret |]
        in
        let dr = Pku.Debug_regs.create () in
        match Loader.admit dr b with
        | Loader.Rejected reason -> Blocked ("admission refused: " ^ reason)
        | Loader.Admitted _ ->
          let offs = Insn.byte_offsets b in
          let byte_off = offs.(1) + delta in
          (match Gadget.jump_into dr b ~byte_off with
           | Gadget.Pkru_written v ->
             Breached
               (Printf.sprintf
                  "admitted binary carries a live gadget at byte +%d; pkru \
                   rewritten to %08x"
                  byte_off v)
           | Gadget.Trapped m -> Blocked ("fetch trapped: " ^ m)
           | Gadget.Harmless -> Blocked "gadget bytes fizzled")) }

(* ---- 3: forged (self-declared) trampoline table --------------------- *)

(* The attacker ships a binary whose trampoline table blesses its own
   stray wrpkru. The table lives inside the binary — attacker-authored
   — so "the wrpkru is at a declared trampoline" proves nothing. *)
let forged_trampoline_table =
  { sc_name = "forged-trampoline-table";
    vector = "binary self-declares its stray wrpkru as a trampoline";
    defense = "admission cross-checks claims against loader-installed records";
    toggle = Some Gadget_scan;
    run =
      (fun ~hardening:_ ->
        with_lib "forge-victim" @@ fun lib ->
        let key = Library.pkey lib in
        let payload = Pkru.set_perm Pkru.init_value key Pkru.Enable in
        let b =
          Insn.make ~trampolines:[ 1 ]
            "forged-tramp"
            [| Insn.Compute 5; Insn.Wrpkru payload; Insn.Ret |]
        in
        let dr = Pku.Debug_regs.create () in
        match Loader.admit dr b with
        | Loader.Rejected reason -> Blocked ("admission refused: " ^ reason)
        | Loader.Admitted _ ->
          Loader.exec dr lib b;
          if Pkru.allows_read (Pkru.read ()) key then
            Breached
              "self-blessed trampoline executed: attacker holds the library \
               key outside any call"
          else Blocked "forged trampoline did not yield the key") }

(* ---- 4: patched binary inheriting a blessing ------------------------ *)

(* The loader did install this binary's trampolines — then the attacker
   patched the image (widening the trampoline's wrpkru payload) and
   kept the name and table. Without digest pinning the stale blessing
   transfers to the patched image. *)
let patched_binary =
  { sc_name = "patched-binary-blessing";
    vector = "image patched after trampoline installation, name/table kept";
    defense = "installation records are digest-pinned to the byte image";
    toggle = Some Gadget_scan;
    run =
      (fun ~hardening:_ ->
        with_lib "patch-victim" @@ fun lib ->
        let key = Library.pkey lib in
        let legit_v = Pkru.set_perm Pkru.init_value key Pkru.Enable in
        let bin_name = "app-bin" in
        let legit =
          Insn.make ~trampolines:[ 0 ] bin_name
            [| Insn.Wrpkru legit_v; Insn.Ret |]
        in
        Loader.install_trampolines legit;
        (* the fix must not break the legitimate image *)
        (match Loader.admit (Pku.Debug_regs.create ()) legit with
         | Loader.Admitted _ -> ()
         | Loader.Rejected r ->
           failwith ("defense broken: legitimate binary rejected: " ^ r));
        Pkru.reset_thread ();
        let patched =
          Insn.make ~trampolines:[ 0 ] bin_name
            [| Insn.Wrpkru Pkru.all_enabled; Insn.Ret |]
        in
        let dr = Pku.Debug_regs.create () in
        match Loader.admit dr patched with
        | Loader.Rejected reason -> Blocked ("admission refused: " ^ reason)
        | Loader.Admitted _ ->
          Loader.exec dr lib patched;
          if Pkru.read () = Pkru.all_enabled then
            Breached
              "patched image inherited the blessing; its trampoline opened \
               every key"
          else Blocked "patched trampoline did not widen pkru") }

(* ---- 5: pkru laundering through a legitimate crossing --------------- *)

(* The attacker arrives at the trampoline already holding the library's
   key (as if a gadget ran earlier). The trampoline saves pkru on
   entry and restores it on exit — so without the entry gate check the
   crossing itself {e launders} the forged register: after the call
   returns, the attacker holds standing rights, courtesy of Hodor. *)
let pkru_laundering =
  { sc_name = "pkru-laundering";
    vector = "caller enters a crossing with a forged pkru already open";
    defense = "trampoline entry gate: outermost caller must not hold the key";
    toggle = Some Gate_checks;
    run =
      (fun ~hardening:_ ->
        with_lib "laundry-lib" @@ fun lib ->
        let region = secret_region lib "laundry" "SECRET" in
        let attacker = Process.make ~uid:5000 "laundry-attacker" in
        Process.with_process attacker @@ fun () ->
        Pkru.wrpkru
          (Pkru.set_perm (Pkru.read ()) (Library.pkey lib) Pkru.Enable);
        (match Trampoline.call lib (fun () -> ()) with
         | () ->
           if Pkru.allows_read (Pkru.read ()) (Library.pkey lib) then
             let leaked = Region.read_string region ~off:0 ~len:6 in
             Breached
               (Printf.sprintf
                  "forged register laundered through the crossing; standing \
                   rights read %S outside any call"
                  leaked)
           else Blocked "crossing sanitized the register"
         | exception Trampoline.Gate_violation _ ->
           if Pkru.allows_read (Pkru.read ()) (Library.pkey lib) then
             Breached "entry gate fired but the attacker kept the key"
           else if Process.alive attacker then
             Breached "entry gate fired but the attacker survived"
           else
             Blocked
               "entry gate caught the forged register; attacker killed, \
                register sanitized")) }

(* ---- 6: wrpkru executed inside the call ----------------------------- *)

(* A gadget fires while the thread is legitimately inside the library,
   widening pkru beyond what the trampoline wrote. Without the exit
   gate check the drift goes unnoticed and the attacker lives to
   escalate; with it, the drift is detected at the exit boundary and
   the offender is terminated — without poisoning the library for
   everyone else. *)
let in_call_tamper =
  { sc_name = "in-call-tamper";
    vector = "pkru widened by a wrpkru inside the library call";
    defense = "trampoline exit gate: register must equal the entry value";
    toggle = Some Gate_checks;
    run =
      (fun ~hardening:_ ->
        with_lib "tamper-lib" @@ fun lib ->
        let attacker = Process.make ~uid:5001 "tamper-attacker" in
        let result =
          Process.with_process attacker @@ fun () ->
          match Trampoline.call lib (fun () -> Pkru.wrpkru Pkru.all_enabled)
          with
          | () ->
            Breached
              "in-call wrpkru went unnoticed: no detection, the attacker \
               lives to retry"
          | exception Trampoline.Gate_violation _ ->
            if Process.alive attacker then
              Breached "exit gate fired but the attacker survived"
            else if Library.health lib <> Library.Healthy then
              Breached "enforcement wrongly poisoned the library"
            else Blocked "tamper detected at exit; offender killed"
        in
        (* enforcement must not cost honest clients the library *)
        match result with
        | Blocked m ->
          let honest = Process.make ~uid:5002 "honest-client" in
          Process.with_process honest (fun () ->
            Trampoline.call lib (fun () -> ()));
          Blocked (m ^ "; library stays healthy for honest callers")
        | r -> r) }

(* ---- 7: retag the shared heap via pkey_mprotect --------------------- *)

(* Linux lets any process pkey_mprotect pages mapped in its own address
   space: holding {e no} key, the attacker simply re-tags the shared
   heap to key 0 and reads it without ever entering the library. The
   only thing in the way is the seccomp filter. *)
let retag_shared_heap =
  { sc_name = "retag-shared-heap";
    vector = "pkey_mprotect retags the protected region to key 0";
    defense = "seccomp filter: pkey_mprotect not in the client allowlist";
    toggle = Some Seccomp;
    run =
      (fun ~hardening:_ ->
        with_lib "retag-lib" @@ fun lib ->
        let region = secret_region lib "retag" "TOPSECRET" in
        let attacker = Process.make ~uid:6000 "retagger" in
        Process.install_filter attacker [ Process.Sys_open ];
        Process.with_process attacker @@ fun () ->
        match
          Region.tag_range region ~off:0 ~len:(Region.size region)
            ~pkey:Pkey.default
        with
        | () ->
          let s = Region.read_string region ~off:0 ~len:9 in
          Breached
            (Printf.sprintf
               "heap retagged to key 0; read %S without entering the library"
               s)
        | exception Process.Seccomp_violation m ->
          Blocked ("pkey_mprotect denied: " ^ m)) }

(* ---- 8: the same retag, raced against live crossings ---------------- *)

(* The racing version under the seeded Vm scheduler: the attacker times
   its retag against a victim's trampoline calls (mid-crossing,
   between crossings — the seed decides). Unhardened, the attacker
   retags under its own freshly-allocated key: the victim faults
   inside the library and the attacker reads the heap at leisure. *)
let retag_race =
  { sc_name = "retag-race";
    vector = "pkey_mprotect raced against crossings (seeded schedules)";
    defense = "seccomp filter: pkey_alloc/pkey_mprotect denied to clients";
    toggle = Some Seccomp;
    run =
      (fun ~hardening ->
        let breaches = ref [] in
        List.iter
          (fun seed ->
            Machine.run (Machine.create ()) @@ fun () ->
            with_lib (Printf.sprintf "race-lib-%d" seed) @@ fun lib ->
            let region =
              secret_region lib (Printf.sprintf "race-%d" seed) "RACE-SECRET"
            in
            let vm = Vm.create ~sched_seed:seed ~preempt_jitter:40 () in
            let victim_proc = Process.make ~uid:2000 "race-victim" in
            let attacker_proc = Process.make ~uid:6001 "race-attacker" in
            Process.install_filter attacker_proc [ Process.Sys_open ];
            let victim_error = ref None in
            ignore
              (Vm.spawn vm ~name:"victim" (fun () ->
                 Process.with_process victim_proc (fun () ->
                   try
                     for i = 1 to 8 do
                       Trampoline.call lib (fun () ->
                         Region.write_i64 region 64 i;
                         Vm.Sync.advance 200;
                         ignore (Region.read_i64 region 64))
                     done
                   with e -> victim_error := Some e)));
            ignore
              (Vm.spawn vm ~name:"attacker" (fun () ->
                 Process.with_process attacker_proc (fun () ->
                   try
                     Vm.Sync.advance 300;
                     let k = Pkey.alloc () in
                     Region.tag_range region ~off:0 ~len:(Region.size region)
                       ~pkey:k;
                     Pkru.wrpkru
                       (Pkru.set_perm (Pkru.read ()) k Pkru.Enable);
                     let s = Region.read_string region ~off:0 ~len:11 in
                     breaches :=
                       (seed,
                        Printf.sprintf
                          "seed %d: retagged at t=%dns, read %S; victim: %s"
                          seed (Vm.Sync.now_ns ()) s
                          (match !victim_error with
                           | Some e -> Printexc.to_string e
                           | None -> "unaffected"))
                       :: !breaches
                   with Process.Seccomp_violation _ -> ())));
            Vm.run vm;
            if hardening then begin
              (match !victim_error with
               | Some e ->
                 failwith
                   ("victim failed under full hardening: "
                    ^ Printexc.to_string e)
               | None -> ());
              if Library.health lib <> Library.Healthy then
                failwith "library unhealthy under full hardening"
            end)
          [ 11; 23; 47 ];
        match !breaches with
        | [] ->
          Blocked
            "3 seeded schedules: every retag attempt denied; victim \
             crossings completed untouched"
        | (_, m) :: _ -> Breached m) }

(* ---- 9: pkey exhaustion (at the virtualized layer) ------------------ *)

(* PKU has 15 allocatable keys per process tree; pkey_alloc itself is
   already seccomp-denied to clients (scenario 13's filter). The
   surviving exhaustion vector is {e legitimate} demand: enough
   tenants, each entitled to a protection key, outnumber the hardware.
   The defense is virtualization — {!Pku.Vpkey} multiplexes unbounded
   virtual keys over the hw slots with LRU eviction, so slot pressure
   degrades to re-tag traffic, never to denial of protection. The
   unhardened run turns the eviction path off: the pre-libmpk world
   where the 16th key request simply fails. *)
let pkey_exhaustion =
  { sc_name = "pkey-exhaustion";
    vector = "key demand beyond the 16 hw slots (many tenants' capabilities)";
    defense = "Vpkey virtualization: slot LRU eviction + lazy re-bind";
    toggle = Some Vkey_eviction;
    run =
      (fun ~hardening:_ ->
        (* a small slot budget makes the pressure cheap to reach; the
           victim is the 65th principal wanting its capability bound *)
        Pku.Vpkey.set_hw_cap 4;
        let vkeys = List.init 64 (fun _ -> Pku.Vpkey.alloc ~owner:7000 ()) in
        let victim_vk = Pku.Vpkey.alloc ~owner:7001 () in
        match
          Region.kernel_mode (fun () ->
            List.iter
              (fun vk -> ignore (Pku.Vpkey.bind ~owner:7000 vk))
              vkeys)
        with
        | exception Pkey.Out_of_keys ->
          Breached
            (Printf.sprintf
               "hw slots drained with only %d of 64 virtual keys bound; \
                every further tenant is denied protection"
               (Pku.Vpkey.slots_in_use ()))
        | () ->
          (match
             Region.kernel_mode (fun () ->
               Pku.Vpkey.bind ~owner:7001 victim_vk)
           with
           | _hw ->
             Blocked
               (Printf.sprintf
                  "64 virtual keys multiplexed over %d hw slots (%d \
                   evictions); the victim's capability still binds"
                  (Pku.Vpkey.slots_in_use ())
                  (Pku.Vpkey.evictions ()))
           | exception Pkey.Out_of_keys ->
             Breached
               "all 64 attacker vkeys bound, yet the victim's bind fails: \
                slots leak under multiplexing")) }

(* ---- 9b: binding a foreign tenant's virtual key --------------------- *)

(* The virtualization layer is itself a boundary: a vkey is a tenant's
   capability, and bind must refuse every caller but its owner (or the
   kernel-side root). The unhardened run drops the ownership check —
   any principal binds any vkey, opens it in pkru, and reads the
   owner's pages. *)
let cross_tenant_vkey_bind =
  { sc_name = "cross-tenant-vkey-bind";
    vector = "attacker binds the victim tenant's vkey and opens it in pkru";
    defense = "vkey ownership check at bind (Vpkey.Permission_denied)";
    toggle = Some Vkey_owner_checks;
    run =
      (fun ~hardening:_ ->
        let victim_vk = Pku.Vpkey.alloc ~owner:1000 () in
        let region = vkey_region victim_vk "vbind" "VKEY-SECRET" in
        (* the owner exercises its capability once: pages now live
           under the vkey's current slot *)
        Region.kernel_mode (fun () ->
          ignore (Pku.Vpkey.bind ~owner:1000 victim_vk));
        match
          Pku.Vpkey.with_grant ~owner:6007 victim_vk (fun _ ->
            Region.read_string region ~off:0 ~len:11)
        with
        | s ->
          Breached
            (Printf.sprintf
               "foreign bind granted the victim's key; read %S under the \
                attacker's own pkru"
               s)
        | exception Pku.Vpkey.Permission_denied _ ->
          (match Region.read_string region ~off:0 ~len:11 with
           | s -> Breached ("bind refused yet the pages read " ^ s)
           | exception Pku.Fault.Protection_fault _ ->
             Blocked
               "foreign bind refused; the victim's pages still fault for \
                the attacker")) }

(* ---- 9c: reading an evicted tenant through the recycled slot -------- *)

(* Slot eviction's dangerous edge: the evicted vkey's pages are still
   tagged with the hw key the slot table just handed to someone else.
   Without quarantine re-tagging, whoever binds next inherits read
   rights over the previous tenant's memory — a use-after-evict
   straight across the protection boundary. *)
let quarantine_evict_leak =
  { sc_name = "quarantine-evict-leak";
    vector = "evicted vkey's pages read through the recycled hw slot";
    defense = "eviction re-tags the victim's regions to the quarantine key";
    toggle = Some Vkey_quarantine;
    run =
      (fun ~hardening:_ ->
        (* one slot: the attacker's bind must recycle the victim's *)
        Pku.Vpkey.set_hw_cap 1;
        let victim_vk = Pku.Vpkey.alloc ~owner:1000 () in
        let region = vkey_region victim_vk "quar" "EVICT-SECRET" in
        let victim_hw =
          Region.kernel_mode (fun () ->
            Pku.Vpkey.bind ~owner:1000 victim_vk)
        in
        let attacker_vk = Pku.Vpkey.alloc ~owner:6008 () in
        Pku.Vpkey.with_grant ~owner:6008 attacker_vk @@ fun attacker_hw ->
        if attacker_hw <> victim_hw then
          Blocked "slot was not recycled (attack fizzled)"
        else
          match Region.read_string region ~off:0 ~len:12 with
          | s ->
            Breached
              (Printf.sprintf
                 "recycled slot %d still maps the victim's pages; read %S"
                 attacker_hw s)
          | exception Pku.Fault.Protection_fault _ ->
            Blocked
              "victim's pages re-tagged to quarantine on eviction; the \
               recycled slot reads fault") }

(* ---- 10: pkey hijack via pkey_free ---------------------------------- *)

(* pkey_free is not owner-checked by the kernel: any process that may
   issue it can free the {e victim's} key, then pkey_alloc until the
   recycled key lands in its own hands — two protection domains merged
   into one. *)
let pkey_hijack =
  { sc_name = "pkey-hijack";
    vector = "victim's pkey freed by the attacker, then reallocated to it";
    defense = "seccomp filter: pkey_free not in the client allowlist";
    toggle = Some Seccomp;
    run =
      (fun ~hardening:_ ->
        with_lib "hijack-lib" @@ fun lib ->
        let victim_key = Library.pkey lib in
        let region = secret_region lib "hijack" "HIJACK-SECRET" in
        let attacker = Process.make ~uid:6003 "key-thief" in
        Process.install_filter attacker [ Process.Sys_open ];
        Process.with_process attacker @@ fun () ->
        match Pkey.free victim_key with
        | exception Process.Seccomp_violation m ->
          Blocked ("pkey_free denied: " ^ m)
        | () ->
          (* grab allocations until the recycled key comes back *)
          let rec hunt n =
            if n > Pkey.count then None
            else
              let k = Pkey.alloc () in
              if k = victim_key then Some k else hunt (n + 1)
          in
          (match hunt 0 with
           | None ->
             Breached
               "victim's key freed by the attacker (recycled elsewhere): \
                protection domain destroyed"
           | Some _k ->
             Pkru.wrpkru
               (Pkru.set_perm (Pkru.read ()) victim_key Pkru.Enable);
             let s = Region.read_string region ~off:0 ~len:13 in
             Breached
               (Printf.sprintf
                  "victim's key freed and reallocated to the attacker; \
                   domains merged, read %S"
                  s))) }

(* ---- 11: double admission of a protected region --------------------- *)

(* A second library claims the victim's region: protect_region would
   retag the victim's pages under the claimant's key, handing every
   byte to whoever enters the {e claimant's} trampolines. The claim
   registry is structural — the unhardened run reproduces the pre-fix
   loader by dropping the victim's claim first. *)
let double_admission =
  { sc_name = "double-admission";
    vector = "attacker library protect_regions the victim's live region";
    defense = "per-region claim registry (Region_already_protected)";
    toggle = None;
    run =
      (fun ~hardening ->
        with_lib "dbladm-victim" @@ fun victim_lib ->
        with_lib ~owner_uid:6004 "dbladm-attacker" @@ fun attacker_lib ->
        let region = secret_region victim_lib "dbladm" "ADMIT-SECRET" in
        if not hardening then Region.unclaim region;
        match Library.protect_region attacker_lib region with
        | exception Library.Region_already_protected _ ->
          Blocked
            "second admission refused; the victim keeps exclusive tagging"
        | () ->
          let attacker = Process.make ~uid:6004 "dbladm-attacker" in
          let s =
            Process.with_process attacker (fun () ->
              Trampoline.call attacker_lib (fun () ->
                Region.read_string region ~off:0 ~len:12))
          in
          Breached
            (Printf.sprintf
               "region retagged under the attacker's library; read %S \
                through the attacker's own trampoline"
               s)) }

(* ---- 12: crash-timed kills inside the grace window ------------------ *)

(* The crash-sweep attack: kill the victim at {e every} sync point of
   its in-library calls (the seeded Vm makes each site deterministic)
   and serve the store to an honest caller afterwards. The defense is
   the recovery protocol; the unhardened run reverts it by simply not
   running recovery — exactly what a deployment that ignores
   Killed_in_call would do. *)
let crash_in_grace =
  { sc_name = "crash-in-grace";
    vector = "victim killed at every sync point inside its library calls";
    defense = "grace-window semantics + recovery protocol before re-admission";
    toggle = None;
    run =
      (fun ~hardening ->
        let run_one ~at ~recover =
          Machine.run (Machine.create ()) @@ fun () ->
          with_lib ~grace_ns:1000 "grace-lib" @@ fun lib ->
          let region =
            Region.create
              ~name:"/shm/rt-grace"
              ~size:4096 ~pkey:(Library.pkey lib) ()
          in
          Library.protect_region lib region;
          (* invariant: the two cells move together *)
          Library.set_recover lib (fun () ->
            Region.kernel_mode (fun () ->
              Region.write_i64 region 8 (Region.read_i64 region 0)));
          let vm = Vm.create ~sched_seed:5 () in
          let victim_proc = Process.make ~uid:2100 "grace-victim" in
          Vm.set_crash_point vm
            ~filter:(fun n -> n = "victim")
            ~at
            ~on_crash:(fun _ now ->
              Region.kernel_mode (fun () ->
                Process.kill ~now_ns:now victim_proc))
            ();
          ignore
            (Vm.spawn vm ~name:"victim" (fun () ->
               Process.with_process victim_proc (fun () ->
                 try
                   for i = 1 to 4 do
                     Trampoline.call lib (fun () ->
                       Region.write_i64 region 0 i;
                       Vm.Sync.advance 1000;
                       Region.write_i64 region 8 i)
                   done
                 with
                 | Process.Process_killed _
                 | Trampoline.Library_call_failed _ -> ())));
          Vm.run vm;
          let sites = Vm.sync_points_seen vm in
          let verdict = ref (Ok ()) in
          let vm2 = Vm.create () in
          ignore
            (Vm.spawn vm2 ~name:"bookkeeper" (fun () ->
               try
                 if recover then Library.recover lib;
                 let honest = Process.make ~uid:2101 "grace-honest" in
                 Process.with_process honest (fun () ->
                   Trampoline.call lib (fun () ->
                     let a = Region.read_i64 region 0 in
                     let b = Region.read_i64 region 8 in
                     if a <> b then
                       verdict :=
                         Error
                           (Printf.sprintf "torn write served (%d <> %d)" a b)))
               with
               | Library.Library_needs_recovery _ ->
                 verdict := Error "store offline: stuck awaiting recovery"
               | Library.Library_poisoned m ->
                 verdict := Error ("library poisoned: " ^ m)));
          Vm.run vm2;
          (sites, !verdict)
        in
        let sites, _ = run_one ~at:max_int ~recover:false in
        let swept = min sites 24 in
        let failures = ref [] in
        for at = 0 to swept - 1 do
          match run_one ~at ~recover:hardening with
          | _, Ok () -> ()
          | _, Error m -> failures := (at, m) :: !failures
        done;
        let failures = List.rev !failures in
        match hardening, failures with
        | true, [] ->
          Blocked
            (Printf.sprintf
               "swept %d kill sites; recovery restored the invariant and \
                re-admitted callers at every one"
               swept)
        | true, (at, m) :: _ ->
          Breached (Printf.sprintf "defense failed at kill site %d: %s" at m)
        | false, [] -> Blocked "no kill site tore state (attack fizzled)"
        | false, l ->
          Breached
            (Printf.sprintf
               "%d of %d kill sites left torn or unserved state (first: \
                site %d, %s)"
               (List.length l) swept (fst (List.hd l)) (snd (List.hd l)))) }

(* ---- 13: syscall escape from inside the library --------------------- *)

(* The in-library attacker: a client already executing inside a
   crossing issues a syscall its filter forbids (unlinking the store's
   backing file). The filter must hold {e inside} the library too, the
   offender must die, and — critically — the library must NOT be
   poisoned: the kernel stopped the call before shared state was
   touched, and treating enforcement as a library crash would hand
   every attacker a one-syscall DoS. *)
let inlib_syscall_escape =
  { sc_name = "inlib-syscall-escape";
    vector = "filtered syscall issued from inside a library call";
    defense = "seccomp filter enforced in-library; enforcement kills without \
               poisoning";
    toggle = Some Seccomp;
    run =
      (fun ~hardening:_ ->
        let path = "/shm/rt-escape" in
        with_lib "escape-lib" @@ fun lib ->
        let region =
          Region.create ~name:path ~size:4096 ~pkey:(Library.pkey lib) ()
        in
        Library.protect_region lib region;
        Simos.Sim_fs.create_file ~path ~owner:1000 ~mode:0o600 region;
        let attacker = Process.make ~uid:6005 "escape-attacker" in
        Process.install_filter attacker [];
        let honest = Process.make ~uid:6006 "escape-honest" in
        match
          Process.with_process attacker (fun () ->
            Trampoline.call lib (fun () -> Simos.Sim_fs.unlink path))
        with
        | () ->
          if Simos.Sim_fs.exists path then
            Blocked "unlink had no effect"
          else
            Breached
              "in-library attacker unlinked the store's backing file \
               (filter installed but never consulted)"
        | exception Process.Seccomp_violation _ ->
          if not (Simos.Sim_fs.exists path) then
            Breached "denied, yet the file is gone"
          else if Process.alive attacker then
            Breached "denied, but the offender survived"
          else if Library.health lib <> Library.Healthy then
            Breached
              "enforcement poisoned the library: one filtered syscall is a \
               universal DoS"
          else begin
            (* the library still serves honest clients *)
            Process.with_process honest (fun () ->
              Trampoline.call lib (fun () -> ()));
            Blocked
              "unlink denied inside the crossing; offender killed; library \
               unpoisoned and serving"
          end) }

(* ---- 14+15: multi-tenant scenarios over the full stack -------------- *)

module RCl = Core.Client.Make (Platform.Real_sync)
module RPlib = RCl.Plib
module RT = RCl.T

let small_cfg =
  { Mc_core.Store.default_config with
    hashpower = 8; lock_count = 8; lru_count = 4; stats_slots = 4 }

let with_rplib ~tag f =
  let owner = Process.make ~uid:1000 (tag ^ "-bk") in
  let path = "/shm/rt-" ^ tag in
  f (RPlib.create ~store_cfg:small_cfg ~path ~size:(4 lsl 20) ~owner ())

(* One ASCII worker over the small store. *)
let small_server_cfg =
  { Mc_server.Server.default_config with
    workers = 1; protocol = Mc_server.Server.Ascii; store = small_cfg }

let rpc c payload =
  RT.client_send c payload;
  RT.client_recv c

(* Does the reply to [cmd] on [c] contain [needle]? *)
let sees c needle cmd = Fuzz.contains ~needle (rpc c cmd)

(* Does [ready] hold within [n] more polls, 2 ms apart? *)
let rec within n ready =
  ready ()
  || n > 0
     && begin
       Platform.Real_sync.sleep_ns 2_000_000;
       within (n - 1) ready
     end

(* A tenant that may write past its byte quota holds the whole heap
   hostage: its churn forces every neighbour's allocation through the
   eviction path, cannibalizing their acked items — resource-exhaustion
   as a cross-tenant attack. The quota + tenant-local eviction keep
   each tenant's footprint inside its own budget. *)
let cross_tenant_quota_starve =
  { sc_name = "cross-tenant-quota-starve";
    vector = "tenant floods writes far past its byte quota, starving a \
              neighbour";
    defense = "per-tenant quotas; a full tenant evicts only its own items";
    toggle = Some Tenant_quota;
    run =
      (fun ~hardening:_ ->
        with_rplib ~tag:"quota" @@ fun p ->
        let a =
          RPlib.create_tenant p ~name:"qa" ~uid:3201
            ~byte_quota:(64 * 1024) ()
        in
        let b =
          RPlib.create_tenant p ~name:"qb" ~uid:3202
            ~byte_quota:(64 * 1024) ()
        in
        let pa = Process.make ~uid:3201 "quota-attacker" in
        let pb = Process.make ~uid:3202 "quota-victim" in
        Process.with_process pb (fun () ->
          if RPlib.tenant_set p b "keep" "b-acked-value" <> Mc_core.Store.Stored
          then failwith "quota scenario: victim's seed write failed");
        (* the flood: ~4.5 MB of writes into a 4 MiB heap *)
        let data = String.make 1500 'A' in
        Process.with_process pa (fun () ->
          for i = 0 to 2999 do
            ignore (RPlib.tenant_set p a (Printf.sprintf "flood%d" i) data)
          done);
        let fresh_ok = ref false and kept = ref false in
        Process.with_process pb (fun () ->
          fresh_ok := RPlib.tenant_set p b "fresh" "b2" = Mc_core.Store.Stored;
          kept :=
            (match RPlib.tenant_get p b "keep" with
             | Some r -> r.Mc_core.Store.value = "b-acked-value"
             | None -> false));
        let a_bytes, _ = RPlib.tenant_usage p a in
        if not !kept then
          Breached
            "flood forced the victim to cannibalize its acked item to \
             store anything at all"
        else if not !fresh_ok then
          Breached "victim starved: its write refused for the flood's memory"
        else if a_bytes > 64 * 1024 then
          Breached
            (Printf.sprintf
               "flooder holds %d bytes against a %d-byte quota" a_bytes
               (64 * 1024))
        else
          Blocked
            (Printf.sprintf
               "flood capped at %d bytes by tenant-local eviction; the \
                victim's acked and fresh writes both stand"
               a_bytes)) }

(* The socket path's isolation: tenant identity is bound to the
   connection at accept time and every key is rewritten host-side into
   the tenant's prefix. The unhardened run drops the rewrite — the
   pre-fix flat key space, where any connection reads (and flushes)
   anyone's data. *)
let cross_tenant_read =
  { sc_name = "cross-tenant-read";
    vector = "tenant connection addresses a neighbour's keys (incl. forged \
              prefix, flush_all)";
    defense = "connection-bound identity + host-side key-prefix scoping";
    toggle = Some Tenant_namespace;
    run =
      (fun ~hardening:_ ->
        with_rplib ~tag:"nsp" @@ fun p ->
        ignore (RPlib.create_tenant p ~name:"ra" ~uid:3101 ());
        ignore (RPlib.create_tenant p ~name:"rb" ~uid:3102 ());
        let sname = "rt-nsp-srv" in
        let assign =
          let q = ref [ "ra"; "rb" ] in
          fun _cid ->
            match !q with
            | [] -> None
            | x :: tl ->
              q := tl;
              Some x
        in
        let srv =
          RPlib.serve_remote ~cfg:small_server_cfg ~assign_tenant:assign p
            ~name:sname
        in
        Fun.protect ~finally:(fun () -> RPlib.stop_remote srv) @@ fun () ->
        let ca = RT.connect ~name:sname in
        let cb = RT.connect ~name:sname in
        if not (sees cb "STORED" "set secret 0 0 12\r\nb-classified\r\n")
        then failwith "nsp scenario: victim's set failed";
        if sees ca "b-classified" "get secret\r\n" then
          Breached
            "flat key space: the attacker's connection read the victim's \
             value by name"
        else if sees ca "b-classified" "get rb/secret\r\n" then
          Breached
            "forged prefix escaped the attacker's namespace and read the \
             victim's value"
        else begin
          ignore (rpc ca "flush_all\r\n");
          if sees cb "b-classified" "get secret\r\n" then
            Blocked
              "scoping held: name and forged-prefix reads both miss, and \
               flush_all is refused on a tenant connection"
          else
            Breached
              "tenant connection flushed the global store, taking the \
               victim's acked write"
        end) }

(* ---- 18: hostile ring client ---------------------------------------- *)

(* The transport-level attacker: a ring-mode client owns the producer
   side of its submission ring — pages sealed under its own vkey — so
   nothing stops it from writing slot headers directly instead of
   going through the client library. Three forgeries, each on a fresh
   connection (a bounced ring stays dead): a sequence stamp off its
   position, a length far past the message envelope, and an overfilled
   tail. Hardened, the consumer's validation walk refuses the window
   before anything downstream trusts a header and bounces only the
   forger; unhardened, the drain believes the forged length and reads
   it as one contiguous span — inside the library crossing, where the
   worker's keys reach the whole shared heap — and the crash poisons
   the library for every client. *)
let hostile_ring_client =
  let module Ring = Transport.Ring in
  let module RS = Platform.Real_sync in
  { sc_name = "hostile-ring-client";
    vector = "ring client stomps slot seq/len words and overfills the tail, \
              then rings the doorbell";
    defense = "validated window walk before the drain; fragment-clamped \
               reads; bounce kills only the forger's connection";
    toggle = Some Ring_validation;
    run =
      (fun ~hardening ->
        with_rplib ~tag:"hring" @@ fun p ->
        let sname = "rt-hring-srv" in
        let srv =
          RPlib.serve_remote ~cfg:small_server_cfg
            ~rings:Mc_server.Server.default_ring_config p ~name:sname
        in
        Fun.protect ~finally:(fun () -> RPlib.stop_remote srv) @@ fun () ->
        let victim = Process.make ~uid:3301 "hring-victim" in
        let attacker = Process.make ~uid:3302 "hring-attacker" in
        let cv =
          Process.with_process victim (fun () -> RT.connect ~name:sname)
        in
        let victim_sees needle cmd =
          Process.with_process victim (fun () -> sees cv needle cmd)
        in
        if not (victim_sees "STORED" "set keep 0 0 7\r\nv-acked\r\n") then
          failwith "hring scenario: victim's seed write failed";
        (* Mount one forgery: raw header writes under the connection's
           own vkey, tail (the publish word) last, then the doorbell.
           Returns whether the consumer bounced the ring. *)
        let forge poke =
          Process.with_process attacker @@ fun () ->
          let c = RT.connect ~name:sname in
          match RT.rings_of c with
          | None -> failwith "hring scenario: server did not attach rings"
          | Some ra ->
            let sub = ra.RT.ra_sub in
            RT.ring_window ra (fun () -> poke (Ring.region sub) sub);
            (try
               RS.send c.RT.inbox
                 { RT.m_cid = c.RT.cid; m_payload = ""; m_at = RS.now_ns () }
             with RS.Closed -> ());
            (* The bounce revokes the connection's vkey and quarantines
               the ring pages, so losing the ability to even read the
               dead flag is itself the bounce signal. *)
            within 500 (fun () ->
              match RT.ring_window ra (fun () -> Ring.is_dead sub) with
              | dead -> dead
              | exception _ -> true)
        in
        (* One raw slot at the tail: length, stamp, the sequence word
           [seq_ahead] past the tail, then the tail word. *)
        let forge_slot ~seq_ahead ~len r sub =
          let tl = Ring.tail sub in
          let off = Ring.slot_word sub tl in
          Region.write_i64 r (off + 8) len;
          Region.write_i64 r (off + 16) (RS.now_ns ());
          Region.write_i64 r off (tl + seq_ahead);
          Region.write_i64 r (Ring.tail_word sub) (tl + 1)
        in
        (* a sequence word off its position *)
        let forge_seq = forge_slot ~seq_ahead:99 ~len:8 in
        (* an honest sequence word, a 32 MiB "message" *)
        let forge_len = forge_slot ~seq_ahead:1 ~len:(32 lsl 20) in
        let forge_overfill r sub =
          Region.write_i64 r (Ring.tail_word sub) (Ring.head sub + 1_000_000)
        in
        if not hardening then begin
          (* Pre-fix stack: the forged length flows into a contiguous
             read that escapes the ring pages inside the crossing. *)
          ignore (forge forge_len);
          let poisoned () =
            match Library.health (RPlib.library p) with
            | Library.Poisoned _ -> true
            | _ -> false
          in
          if within 500 poisoned then
            Breached
              "forged length trusted: the drain read attacker-controlled \
               bytes past the ring pages inside the crossing and poisoned \
               the library for every client"
          else
            Blocked "forged length had no effect (attack fizzled)"
        end
        else begin
          let module C = Telemetry.Counters in
          let k0 = C.read C.Id.ring_kills in
          let b1 = forge forge_seq in
          let b2 = forge forge_len in
          let b3 = forge forge_overfill in
          if not (b1 && b2 && b3) then
            Breached
              (Printf.sprintf
                 "a forged window was never refused (seq=%b len=%b \
                  overfill=%b): the drain path trusted a stomped header"
                 b1 b2 b3)
          else
            let kills = C.read C.Id.ring_kills - k0 in
            let fresh_ok = victim_sees "STORED" "set fresh 0 0 2\r\nv2\r\n" in
            let kept = victim_sees "v-acked" "get keep\r\n" in
            if not (fresh_ok && kept) then
              Breached
                "the bounce took the victim's connection down with the \
                 forger"
            else if Library.health (RPlib.library p) <> Library.Healthy then
              Breached "a stomped header poisoned the hardened library"
            else
              Blocked
                (Printf.sprintf
                   "all three forged windows bounced before the parser (%d \
                    ring kills); the victim's connection never noticed"
                   kills)
        end) }

(* ---- 19: a negative length through the protocol parser ------------- *)

(* The fuzzer's canonical killer input: a pipelined set whose data
   length is negative. Unhardened, the length passes the short-read
   guard and drives [String.sub] to raise out of the parser — the
   crash the fuzzer first surfaced, caught here by its own crash
   oracle, which shows the oracle is live. *)
let killer_input = "set k0 0 0 -2\r\nxx\r\n"

let parser_negative_length =
  { sc_name = "parser-negative-length";
    vector = "pipelined set with a negative data length";
    defense = "hardened length parsing: digits only, bounded; a lying \
               length is a connection-fatal parse error";
    toggle = Some Parser_hardening;
    run =
      (fun ~hardening:_ ->
        match Fuzz.run_input Fuzz.Ascii killer_input with
        | [] -> Blocked "parse error answered; every fuzz oracle green"
        (* a drain failure, when there is one, is listed first *)
        | (Fuzz.Crash _ as f) :: _ ->
          Breached ("the fuzzer's oracle saw " ^ Fuzz.failure_string f)
        | f :: _ ->
          failwith ("parser scenario: not a crash: " ^ Fuzz.failure_string f)) }

(* ---- 20: a kill inside a breadcrumb's publish window ---------------- *)

(* A tearable flight breadcrumb crosses a sync point between its
   payload and its commit stamp, so the crash sweep can kill the
   writer there. Under publish-last stamping no kill site leaves a head
   record that claims publication (sequence word stamped) yet fails
   validation; with the sequence word stamped first, some site does,
   and the post-mortem reads a lie. *)
let flight_torn_head =
  { sc_name = "flight-torn-head";
    vector = "writer killed between a breadcrumb's payload and its commit \
              stamp";
    defense = "publish-last stamping: payload and checksum first, sequence \
               word last";
    toggle = Some Flight_publish_last;
    run =
      (fun ~hardening:_ ->
        let module F = Telemetry.Flight in
        let torn_after ~at =
          F.reset_backend ();
          F.reset ();
          Fun.protect ~finally:F.reset @@ fun () ->
          let vm = Vm.create () in
          Vm.set_crash_point vm ~filter:(fun n -> n = "w") ~at ();
          ignore
            (Vm.spawn vm ~name:"w" (fun () ->
               F.record ~tearable:true F.Op_dispatch ~a:3 ~b:1 ~c:7;
               F.record ~tearable:true F.Tenant_scope ~a:2;
               Vm.Sync.advance 10));
          Vm.run vm;
          (Vm.sync_points_seen vm, Vm.crashed vm <> [] && F.torn_lanes () <> [])
        in
        let n, _ = torn_after ~at:max_int in
        if n < 2 then
          failwith
            (Printf.sprintf "flight scenario: only %d kill sites exposed" n);
        let sites = List.init n Fun.id in
        match List.find_opt (fun at -> snd (torn_after ~at)) sites with
        | Some at ->
          Breached
            (Printf.sprintf
               "a kill at site %d of %d left a head record stamped as \
                published that fails its checksum"
               at n)
        | None ->
          Blocked
            (Printf.sprintf
               "swept %d kill sites; no head record claims publication \
                without validating"
               n)) }

let all =
  [ gadget_island `Wrpkru;
    gadget_island `Xrstor;
    forged_trampoline_table;
    patched_binary;
    pkru_laundering;
    in_call_tamper;
    retag_shared_heap;
    retag_race;
    pkey_exhaustion;
    cross_tenant_vkey_bind;
    quarantine_evict_leak;
    pkey_hijack;
    double_admission;
    crash_in_grace;
    inlib_syscall_escape;
    cross_tenant_quota_starve;
    cross_tenant_read;
    hostile_ring_client;
    parser_negative_length;
    flight_torn_head ]

let find name = List.find (fun s -> s.sc_name = name) all
