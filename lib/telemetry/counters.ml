(** Sharded event counters with a pluggable cell store.

    Counts are striped across {!stripes} cells per counter: each
    simulated (or OS) thread is assigned a stripe round-robin on first
    use, so concurrent bumps from different threads land in different
    cells and reads aggregate across stripes. This is the same
    scattered-statistics idea the store uses for its own counters
    (paper §4.2): writes stay contention-free, reads pay the loop.

    The cell store is pluggable because where the cells live depends
    on the deployment: the default backend is a process-local atomic
    array (benchmarks, unit tests, the socket baseline); the protected
    -library store installs a backend whose cells are 64-bit words in
    the shared Ralloc heap, anchored under a persistent root, so
    counters survive client crashes and bookkeeper restarts and are
    {e sifted} — not reset — by recovery (see DESIGN.md
    "Telemetry"). *)

let stripes = 16

(* Counter identifiers. Fixed small ints so a backend can be a flat
   [stripes * count] array of 64-bit cells; [names] must line up. *)
module Id = struct
  (* Store-operation mirrors (bumped from [Store.stat_add]). *)
  let get_hits = 0
  let get_misses = 1
  let cmd_get = 2
  let cmd_set = 3
  let delete_hits = 4
  let delete_misses = 5
  let incr_hits = 6
  let incr_misses = 7
  let evictions = 8
  let expired_unfetched = 9
  let cas_hits = 10
  let cas_badval = 11
  let cas_misses = 12
  let touch_hits = 13
  let touch_misses = 14
  let total_items = 15

  (* Protection-domain crossings (Hodor trampoline). *)
  let hodor_enter = 16
  let hodor_exit = 17
  let hodor_grace_hits = 18
  let hodor_kill_in_call = 19
  let hodor_poisoned = 20

  (* PKU events. *)
  let pkru_writes = 21
  let pku_faults = 22

  (* Allocator traffic (Ralloc). *)
  let alloc_calls = 23
  let alloc_bytes = 24
  let free_calls = 25

  (* Recovery. *)
  let recoveries = 26

  (* Batch plane: protected calls that carried a whole op batch, and
     the ops they carried. crossings/op = hodor_enter / ops served;
     with every op going through [Trampoline.call_batch],
     hodor_batch_ops / hodor_batch_calls is the mean batch size. *)
  let hodor_batch_calls = 27
  let hodor_batch_ops = 28

  (* Optimistic (seqlock) read path: gets that retired without the
     stripe lock, snapshot attempts that had to retry, and gets that
     gave up and took the locked path. *)
  let opt_hits = 29
  let opt_retries = 30
  let opt_fallbacks = 31

  (* Boundary hardening (the red-team fixes): trampoline gate-check
     violations, seccomp-style syscall filter denials, and binaries
     the loader's admission scan refused. *)
  let gate_violations = 32
  let seccomp_denials = 33
  let loader_rejects = 34

  (* Virtual pkeys (libmpk-style slot table): binds served, binds that
     missed the slot table (and had to re-tag lazily), vkeys evicted
     from a hardware slot to the quarantine key, and binds refused
     because every slot backed an open grant window. *)
  let vpkey_binds = 35
  let vpkey_slot_misses = 36
  let vpkey_evictions = 37
  let vpkey_pin_refusals = 38

  (* Shared-ring transport: submissions enqueued by clients, doorbell
     syscalls actually paid (the amortization win is submits far above
     doorbells), ring drains (each takes everything a ring held when
     the worker looked), the ops those drains carried (ops/drain =
     ring_drain_ops / ring_drains), completions published, producer
     stalls on a full ring, connections bounced for forged slot headers,
     completions that found the client parked and paid its wakeup, and
     messages either consumer read before the virtual time its producer
     stamped them at (ring slots are host memory, so a consumer can see
     a publish from its producer's future; see EXPERIMENTS.md), and
     connections refused because the ring directory was full. *)
  let ring_submits = 39
  let ring_doorbells = 40
  let ring_drains = 41
  let ring_drain_ops = 42
  let ring_completions = 43
  let ring_full_waits = 44
  let ring_kills = 45
  let ring_wakes = 46
  let ring_early_reads = 47
  let ring_refused = 48

  (* Per-pkey fault counts occupy the tail: [pku_fault_pkey + k] for
     pkey k in [0, pkeys). *)
  let pku_fault_pkey = 49

  let pkeys = 16

  let count = pku_fault_pkey + pkeys
end

let names =
  let a = Array.make Id.count "" in
  List.iter
    (fun (i, n) -> a.(i) <- n)
    [ (Id.get_hits, "get_hits"); (Id.get_misses, "get_misses");
      (Id.cmd_get, "cmd_get"); (Id.cmd_set, "cmd_set");
      (Id.delete_hits, "delete_hits"); (Id.delete_misses, "delete_misses");
      (Id.incr_hits, "incr_hits"); (Id.incr_misses, "incr_misses");
      (Id.evictions, "evictions");
      (Id.expired_unfetched, "expired_unfetched");
      (Id.cas_hits, "cas_hits"); (Id.cas_badval, "cas_badval");
      (Id.cas_misses, "cas_misses"); (Id.touch_hits, "touch_hits");
      (Id.touch_misses, "touch_misses"); (Id.total_items, "total_items");
      (Id.hodor_enter, "hodor_enter"); (Id.hodor_exit, "hodor_exit");
      (Id.hodor_grace_hits, "hodor_grace_hits");
      (Id.hodor_kill_in_call, "hodor_kill_in_call");
      (Id.hodor_poisoned, "hodor_poisoned");
      (Id.pkru_writes, "pkru_writes"); (Id.pku_faults, "pku_faults");
      (Id.alloc_calls, "alloc_calls"); (Id.alloc_bytes, "alloc_bytes");
      (Id.free_calls, "free_calls"); (Id.recoveries, "recoveries");
      (Id.hodor_batch_calls, "hodor_batch_calls");
      (Id.hodor_batch_ops, "hodor_batch_ops");
      (Id.opt_hits, "opt_hits"); (Id.opt_retries, "opt_retries");
      (Id.opt_fallbacks, "opt_fallbacks");
      (Id.gate_violations, "gate_violations");
      (Id.seccomp_denials, "seccomp_denials");
      (Id.loader_rejects, "loader_rejects");
      (Id.vpkey_binds, "vpkey_binds");
      (Id.vpkey_slot_misses, "vpkey_slot_misses");
      (Id.vpkey_evictions, "vpkey_evictions");
      (Id.vpkey_pin_refusals, "vpkey_pin_refusals");
      (Id.ring_submits, "ring_submits");
      (Id.ring_doorbells, "ring_doorbells");
      (Id.ring_drains, "ring_drains");
      (Id.ring_drain_ops, "ring_drain_ops");
      (Id.ring_completions, "ring_completions");
      (Id.ring_full_waits, "ring_full_waits");
      (Id.ring_kills, "ring_kills"); (Id.ring_wakes, "ring_wakes");
      (Id.ring_early_reads, "ring_early_reads");
      (Id.ring_refused, "ring_refused") ];
  for k = 0 to Id.pkeys - 1 do
    a.(Id.pku_fault_pkey + k) <- Printf.sprintf "pku_fault_pkey:%d" k
  done;
  a

let name id = names.(id)

let cells = stripes * Id.count

(** A cell store: [add cell delta] / [read cell] / [zero ()] over
    [cells] 64-bit slots. Implementations must be safe to call from
    any thread; they are never called with telemetry off. *)
type backend = {
  add : int -> int -> unit;
  read : int -> int;
  zero : unit -> unit;
}

let local_backend () =
  let a = Array.init cells (fun _ -> Atomic.make 0) in
  { add = (fun c d -> ignore (Atomic.fetch_and_add a.(c) d));
    read = (fun c -> Atomic.get a.(c));
    zero = (fun () -> Array.iter (fun c -> Atomic.set c 0) a) }

let backend = ref (local_backend ())

let install_backend b = backend := b

let reset_backend () = backend := local_backend ()

(* Stripe assignment: round-robin at first use, held in (pluggable)
   TLS so each simulated thread under the Vm gets its own stripe. *)
let next_stripe = Atomic.make 0

let stripe_key = Tls.new_key (fun () -> ref (-1))

let my_stripe () =
  let r = Tls.get stripe_key in
  if !r < 0 then r := Atomic.fetch_and_add next_stripe 1 mod stripes;
  !r

let add ?(n = 1) id =
  if Control.on () then (!backend).add ((my_stripe () * Id.count) + id) n

let incr id = add id

(* Reads don't gate on [Control.on]: a snapshot taken after telemetry
   is switched off should still see the counts recorded while on. *)
let read id =
  let b = !backend in
  let s = ref 0 in
  for stripe = 0 to stripes - 1 do
    s := !s + b.read ((stripe * Id.count) + id)
  done;
  !s

let reset () = (!backend).zero ()

let pkey_fault k =
  if k >= 0 && k < Id.pkeys then add (Id.pku_fault_pkey + k)

(* Boundary/allocator counters — the ones merged into the protocol's
   plain `stats` reply. Store-op mirrors are excluded there because
   the store's own (authoritative, recovered) counters already report
   those keys; the mirrors appear in [all_kvs]. *)
let boundary_ids =
  [ Id.hodor_enter; Id.hodor_exit; Id.hodor_grace_hits;
    Id.hodor_kill_in_call; Id.hodor_poisoned; Id.pkru_writes;
    Id.pku_faults; Id.alloc_calls; Id.alloc_bytes; Id.free_calls;
    Id.recoveries; Id.hodor_batch_calls; Id.hodor_batch_ops;
    Id.vpkey_binds; Id.vpkey_slot_misses; Id.vpkey_evictions;
    Id.vpkey_pin_refusals ]

let kv id = (name id, string_of_int (read id))

let boundary_kvs () =
  List.map kv boundary_ids
  @ List.filter_map
      (fun k ->
        let id = Id.pku_fault_pkey + k in
        let v = read id in
        if v = 0 then None else Some (name id, string_of_int v))
      (List.init Id.pkeys Fun.id)

(* Seqlock read-path counters — merged into `stats contention`, next
   to the stripe-wait profile they explain. *)
let optimistic_kvs () =
  List.map kv [ Id.opt_hits; Id.opt_retries; Id.opt_fallbacks ]

(* Shared-ring transport counters — the `stats rings` payload, next to
   the live window/occupancy figures the ring server appends. *)
let ring_kvs () =
  List.map kv
    [ Id.ring_submits; Id.ring_doorbells; Id.ring_drains;
      Id.ring_drain_ops; Id.ring_completions; Id.ring_full_waits;
      Id.ring_kills; Id.ring_wakes; Id.ring_early_reads; Id.ring_refused ]

let all_kvs () =
  List.filter_map
    (fun id ->
      let v = read id in
      if id >= Id.pku_fault_pkey && v = 0 then None
      else Some (name id, string_of_int v))
    (List.init Id.count Fun.id)
