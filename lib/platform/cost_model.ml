(** Calibrated CPU-cost constants, in nanoseconds.

    The virtual-time benchmarks charge these costs via [Sync.advance];
    the constants are calibrated so that the single-threaded latencies
    of Figure 5 of the paper come out at the reported values, and the
    throughput figures (6-9) then follow from structure (thread counts,
    lock contention, syscall path length) rather than further tuning.
    See EXPERIMENTS.md for the calibration notes.

    All values model the paper's testbed: a 2.5 GHz Intel Xeon Gold
    5215, Unix-domain-socket messaging with a 3.3-9.6 us minimum round
    trip, and a ~40 ns empty Hodor call. *)

type t = {
  (* Kernel interaction (baseline server path). *)
  mutable syscall_send : int;      (** write(2) on a Unix socket *)
  mutable syscall_recv : int;      (** read(2) on a Unix socket *)
  mutable syscall_select : int;    (** select/epoll returning ready *)
  mutable ctx_switch : int;        (** context switch: total added latency *)
  mutable ctx_switch_cpu : int;    (** CPU portion of a context switch *)
  mutable wakeup : int;            (** waking a blocked peer *)
  (* Wire protocol and client library (baseline path). *)
  mutable proto_parse : int;       (** server-side request parse *)
  mutable proto_pack : int;        (** server-side response pack *)
  mutable client_pack : int;       (** libmemcached request marshal *)
  mutable client_unpack : int;     (** libmemcached response parse *)
  mutable client_incr_extra : int; (** libmemcached incr/decr slow path *)
  (* Protected-library entry (plib path). *)
  mutable trampoline_hodor : int;  (** full Hodor trampoline, round trip *)
  mutable trampoline_plain : int;  (** plain indirect call, round trip *)
  mutable wrpkru : int;            (** one pkru write *)
  mutable pkey_mprotect : int;
  (** re-tagging one memory range to another pkey on a vpkey slot
      miss or eviction — libmpk's dominant multiplexing cost (a
      kernel page-table walk, ~1 us/call in their measurements) *)
  (* Store internals (both paths run this code). *)
  mutable hash_op : int;           (** murmur3 of a short key *)
  mutable bucket_probe : int;      (** one chain-node visit *)
  mutable key_cmp_per_16b : int;   (** key comparison, per 16 bytes *)
  mutable memcpy_per_256b : int;   (** bulk copy, per 256 bytes *)
  mutable alloc_small : int;
  (** an allocation that touches shared allocator state: a size-class
      refill from the partial list or a fresh superblock, a large
      block, or any slab allocation *)
  mutable alloc_per_kb : int;      (** extra per KB for large blocks *)
  mutable alloc_cache_pop : int;
  (** an allocation served from the calling thread's own cache: one
      pointer pop, no lock and no shared freelist traffic *)
  mutable malloc_out : int;   (** libc malloc of the caller's result buffer *)
  mutable free_cost : int;
  mutable lock_uncontended : int;  (** acquire+release, no contention *)
  mutable lock_handoff : int;
  (** extra cost of acquiring a lock another thread was just holding:
      the cache-line transfer plus wake-up path *)
  mutable lru_update : int;        (** LRU list splice under its lock *)
  mutable stats_update : int;      (** one scattered-slot bump *)
  mutable numeric_parse : int;     (** incr/decr text-to-int-to-text *)
  mutable coherence_ns : int;
  (** extra per-operation cost for each additional thread concurrently
      inside the store: cache-coherence and critical-section traffic on
      the shared structures — the contention the paper names as the
      protected library's bottleneck (§4.1) *)
  mutable wire_per_256b : int;
  (** kernel copy cost per 256 B of request payload on the socket
      write path (what separates Set 5 KB from Set 128 B in Fig. 5) *)
  mutable ycsb_driver : int;
  (** per-op overhead of the YCSB (Java) client harness itself,
      calibrated so the throughput figures peak where the paper's do;
      charged by the benchmark's DB adapters, not by the store *)
  mutable ring_slot : int;
  (** shared-ring slot bookkeeping per message: the header loads and
      the sequence-stamp store around the payload memcpy — cache-line
      traffic, no kernel involvement *)
}

let default () = {
  syscall_send = 1600;
  syscall_recv = 1600;
  syscall_select = 900;
  ctx_switch = 3000;
  ctx_switch_cpu = 800;
  wakeup = 600;
  proto_parse = 600;
  proto_pack = 500;
  client_pack = 500;
  client_unpack = 500;
  client_incr_extra = 44000;
  trampoline_hodor = 40;
  trampoline_plain = 5;
  wrpkru = 12;
  pkey_mprotect = 1100;
  hash_op = 60;
  bucket_probe = 10;
  key_cmp_per_16b = 3;
  memcpy_per_256b = 9;
  alloc_small = 520;
  alloc_per_kb = 24;
  alloc_cache_pop = 60;
  malloc_out = 140;
  free_cost = 35;
  lock_uncontended = 18;
  lock_handoff = 350;
  lru_update = 180;
  stats_update = 12;
  numeric_parse = 1250;
  coherence_ns = 220;
  wire_per_256b = 190;
  ycsb_driver = 2000;
  ring_slot = 30;
}

let current = default ()

let reset () =
  let d = default () in
  current.syscall_send <- d.syscall_send;
  current.syscall_recv <- d.syscall_recv;
  current.syscall_select <- d.syscall_select;
  current.ctx_switch <- d.ctx_switch;
  current.ctx_switch_cpu <- d.ctx_switch_cpu;
  current.wakeup <- d.wakeup;
  current.proto_parse <- d.proto_parse;
  current.proto_pack <- d.proto_pack;
  current.client_pack <- d.client_pack;
  current.client_unpack <- d.client_unpack;
  current.client_incr_extra <- d.client_incr_extra;
  current.trampoline_hodor <- d.trampoline_hodor;
  current.trampoline_plain <- d.trampoline_plain;
  current.wrpkru <- d.wrpkru;
  current.pkey_mprotect <- d.pkey_mprotect;
  current.hash_op <- d.hash_op;
  current.bucket_probe <- d.bucket_probe;
  current.key_cmp_per_16b <- d.key_cmp_per_16b;
  current.memcpy_per_256b <- d.memcpy_per_256b;
  current.alloc_small <- d.alloc_small;
  current.alloc_per_kb <- d.alloc_per_kb;
  current.alloc_cache_pop <- d.alloc_cache_pop;
  current.malloc_out <- d.malloc_out;
  current.free_cost <- d.free_cost;
  current.lock_uncontended <- d.lock_uncontended;
  current.lock_handoff <- d.lock_handoff;
  current.lru_update <- d.lru_update;
  current.stats_update <- d.stats_update;
  current.numeric_parse <- d.numeric_parse;
  current.coherence_ns <- d.coherence_ns;
  current.wire_per_256b <- d.wire_per_256b;
  current.ycsb_driver <- d.ycsb_driver;
  current.ring_slot <- d.ring_slot

(* Derived helpers used throughout the store code. *)

let memcpy_cost bytes =
  if bytes <= 0 then 0
  else current.memcpy_per_256b * ((bytes + 255) / 256)

let key_cmp_cost bytes =
  if bytes <= 0 then 0
  else current.key_cmp_per_16b * ((bytes + 15) / 16)

let alloc_cost bytes =
  current.alloc_small
  + if bytes > 1024 then current.alloc_per_kb * (bytes / 1024) else 0

let wire_cost bytes =
  if bytes <= 0 then 0
  else current.wire_per_256b * ((bytes + 255) / 256)
