(** Reimplementation of the Ralloc shared-heap allocator (Cai et al.,
    ISMM '20), the substrate the paper's protected-library memcached
    stores all keys, values and buckets in.

    Architecture, matching the original:
    - the heap lives in a {!Shm.Region} (the stand-in for Ralloc's
      shared memory-mapped file);
    - storage is carved into 64 KiB {e superblocks}, each dedicated to
      one size class (so there is no external fragmentation for the
      block sizes memcached uses); blocks above the largest class take
      runs of contiguous superblocks;
    - each thread keeps a {e per-thread cache} of free blocks per size
      class, so the common alloc/free path touches no shared state;
    - all intra-heap references are {e position independent}
      ({!Pptr}: self-relative offsets, distance 0 = null), so the heap
      works at a different base address in every process;
    - {e persistent roots}, identified by small integer IDs, anchor the
      data structures across restarts ([pm_set_root]/[pm_get_root] in
      the paper's Figures 2 and 3).

    Deviation from the original, documented in DESIGN.md: the global
    per-size-class superblock lists are protected by short mutexes
    rather than CAS loops (OCaml [Bytes] has no atomics); the
    per-thread caches keep those sections cold, which is where Ralloc's
    scalability comes from. *)

type t
(** A heap handle: a region plus per-process runtime state (class
    locks, thread caches). *)

exception Out_of_heap

val superblock_size : int

val max_small : int
(** Largest size served from size-class superblocks. *)

val root_slots : int
(** Number of persistent root slots (64). *)

val create : Shm.Region.t -> t
(** Format a fresh heap over the whole region and return a handle.
    Runs in kernel mode (it is the bookkeeping process's setup step). *)

val attach : Shm.Region.t -> t
(** Attach to an already-formatted heap (e.g. one reloaded from its
    backing file). Rebuilds the runtime state; in-heap state is taken
    as found. Raises [Failure] when the region's magic is not this
    format's (unformatted, or formatted under another class table). *)

val region : t -> Shm.Region.t

val alloc : t -> int -> int
(** [alloc t size] returns the region offset of a block of at least
    [size] bytes. Raises {!Out_of_heap} when the heap cannot satisfy
    the request; the store evicts and retries. *)

type path =
  | Cache  (** popped from the calling thread's cache of the class *)
  | Refill
      (** the cache was empty: refilled under the class lock from the
          class's partial list or a fresh superblock *)
  | Large  (** a run of whole superblocks, under the superblock lock *)

val alloc_path : t -> int -> int * path
(** {!alloc}, also saying which path served the block, so a caller
    can price a thread-cache pop apart from shared-list traffic. *)

val free : t -> int -> unit
(** Return a block. The block's size is recovered from its superblock
    header, as in C [free]. *)

val usable_size : t -> int -> int

val used_bytes : t -> int
(** Bytes currently allocated (block granularity), the store's input
    to its eviction watermark. *)

val capacity : t -> int

val flush_thread_cache : t -> unit
(** Return the calling thread's cached blocks to the shared lists
    (called by exiting threads, and before {!flush}). *)

val flush : t -> path:string -> unit
(** Persist the heap to its backing file (bookkeeping-process
    shutdown). *)

val recover : t -> live:int list -> unit
(** Post-crash recovery (the paper's "Ralloc is a recovering
    allocator"). [live] is the set of block offsets still reachable
    from the store's data structures; every carved block not in it —
    blocks cached by a dead process's threads, blocks allocated but not
    yet linked when the process was killed — is reclaimed. Rebuilds,
    from the superblock headers alone: per-superblock freelists, the
    free-superblock pool, the per-class partial lists, and the used
    counter; clears poison marks on reachable blocks and re-marks
    reclaimed ones. Also bumps the heap generation so every thread's
    local cache (including survivors') is discarded rather than handing
    out blocks recovery just reclaimed. Runs in kernel mode at
    quiescence: no concurrent library calls may be in flight. Raises
    [Invalid_argument] if [live] names an offset that is not a carved
    block. *)

(** {1 Persistent roots} *)

val set_root : t -> int -> int -> unit
(** [set_root t id off] anchors the object at [off]; [off = 0] clears. *)

val get_root : t -> int -> int
(** Offset anchored under [id], or [0]. *)

(** {1 Position-independent pointers} *)

module Pptr : sig
  val store : Shm.Region.t -> at:int -> int -> unit
  (** [store r ~at target] writes at [at] the self-relative encoding of
      region offset [target]; [target = 0] encodes null. *)

  val load : Shm.Region.t -> at:int -> int
  (** Decode the pptr at [at]: the target's region offset, or [0]. *)

  val is_null : Shm.Region.t -> at:int -> bool
end

(** {1 Use-after-free poisoning (test harness)} *)

exception Use_after_free of string

val set_poisoning : t -> bool -> unit
(** [set_poisoning t true] turns silent use-after-free into a hard
    failure: from then on {!free} fills the block body with [0xDE] and
    records its granules in a side bitmap, {!alloc} clears the record
    on the block it returns, and {!poison_guard} raises
    {!Use_after_free} for any guarded access that touches a recorded
    granule. Off by default; costs nothing while off. *)

val poisoning : t -> bool

val poison_guard : Shm.Region.t -> off:int -> len:int -> unit
(** Check one prospective access against the poison bitmap of the heap
    living in [reg] (no-op when that heap does not poison, or no heap
    is known for [reg]). Called by the store's memory layer on every
    data access; the allocator's own metadata traffic deliberately
    bypasses it — a freed block's first word legitimately carries the
    freelist link. *)

(** {1 Introspection (tests, EXPERIMENTS.md)} *)

type class_stat = {
  cs_block_size : int;
  cs_superblocks : int;
  cs_free_blocks : int;
  cs_cached_blocks : int;
}

val class_stats : t -> class_stat array

val size_classes : int array
(** Block sizes of the small classes, ascending: LRMalloc's geometry,
    a 16 B quantum up to 128 B (16, 32, … 128), then four classes per
    doubling, a quarter of the doubling's base apart (160, 192, 224,
    256, 320, … 12288, 14336, 16384) — 36 classes, the last equal to
    {!max_small}. A request above 128 B gets a block less than 1.25
    times its size. The table is part of the heap format: superblock
    headers record class indices, and {!attach} refuses a heap
    formatted under another table. *)

val class_of_size : int -> int
(** Index into {!size_classes} of the class serving [size];
    [Array.length size_classes] when large. Exposed for tests. *)

val check_invariants : t -> unit
(** Walk every superblock and verify header/freelist consistency;
    raises [Failure] with a description on corruption. Test hook. *)

(** {1 Heap observatory} *)

type heap_class = {
  hc_block_size : int;
  hc_superblocks : int;
  hc_capacity : int;
  hc_carved : int;
  hc_live : int;
}

type heap_map = {
  hm_classes : heap_class array;
  hm_large_runs : int;
  hm_large_sbs : int;
  hm_large_bytes : int;
  hm_small_sbs : int;
  hm_free_sbs : int;
  hm_fresh_sbs : int;
  hm_total_sbs : int;
  hm_live_bytes : int;
  hm_largest_free_run : int;
  hm_free_run_sbs : int;
  hm_ext_frag : float;
}

val heap_map : t -> heap_map
(** One structural walk over the superblock headers: per-size-class
    occupancy, large-run accounting, free/fresh extents, and the
    external-fragmentation ratio. [hm_live_bytes] reconciles exactly
    with {!used_bytes} (per-thread cached blocks count as live in
    both). Safe on a freshly attached post-crash heap. *)

val heap_kvs : t -> (string * string) list
(** {!heap_map} flattened for the [stats heap] surface. *)

val render_heap_map : t -> string
(** Human-readable map — one character per superblock plus per-class
    utilization lines (the heap-map.txt CI artifact). *)
