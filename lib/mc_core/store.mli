(** The memcached store: hash table, LRU lists, statistics, eviction,
    resize — one implementation for both of the paper's builds.

    - baseline server: [Make (Private_memory) (Slab) (S)]
    - protected library: [Make (Shared_memory) (Ralloc_alloc) (S)],
      where every pointer is a position-independent pptr in the shared
      Ralloc heap and client threads run these functions themselves
      through Hodor trampolines.

    Concurrency mirrors memcached: striped item locks keyed by key
    hash; per-LRU-list locks chosen by key hash (§3.2); statistics
    scattered over per-thread slots (§3.2). Lock order is always item
    lock then LRU lock. CPU costs are charged via [S.advance] where
    the work happens, so critical-section lengths — and therefore
    contention in the virtual-time benchmarks — reflect the modeled
    machine. *)

module Layout : sig
  val header_size : int

  val ctl_cas : int
end

type config = {
  hashpower : int;  (** 2^hashpower buckets *)
  lock_count : int;  (** item-lock stripes (power of two) *)
  lru_count : int;  (** number of LRU lists (ablation abl1 uses 1) *)
  stats_slots : int;  (** scattered statistics slots *)
  single_stats_lock : bool;  (** ablation abl2: one lock, one slot *)
  lru_by_size_class : bool;
  (** baseline behaviour: LRU list per allocation size class; the plib
      build chooses by key hash (§3.2) *)
  evict_batch : int;
  bump_interval_s : int;
  (** the move rule: an item that took its LRU place within this many
      seconds is not moved again — a get or touch skips the LRU bump
      (and its lock), and an overwrite takes the old item's place.
      memcached's rate-limiting that keeps hot keys off the LRU lock;
      [0] moves on every access *)
  optimistic_reads : bool;
  (** seqlock read path: a get snapshots the item without the stripe
      lock and validates against the stripe's version word, falling
      back to the locked path on conflict or when the hit needs a
      side effect (LRU bump, expiry unlink) *)
  opt_max_retries : int;
  (** snapshot attempts before an optimistic get gives up and takes
      the stripe lock *)
}

val default_config : config

val holding_stripes_now : unit -> int
(** Stripes the calling thread currently holds through
    {!Make.with_stripes} — every store op's own hold and every group
    pin — across every instantiation of {!Make} and every store
    handle. Ground truth for the flight recorder's stripe breadcrumbs:
    the crash sweep snapshots it at the kill site and the forensic
    classifier must agree. *)

type store_result = Stored | Not_stored | Exists | Not_found | No_memory

type get_result = { value : string; flags : int; cas : int64 }

type counter_result = Counter of int64 | Counter_not_found | Non_numeric

(** A write's owner-side quota ({!Tenant.admit}'s). The write sizes,
    admits and charges itself in its own store op, under its key's
    stripe: it asks [fits] before allocating anything, and [charge]s
    the delta against the item it actually replaced or removed. Sizes
    are key + value bytes. *)
type quota = {
  fits : bytes:int -> items:int -> bool;
  charge : bytes:int -> items:int -> unit;
}

exception Over_quota
(** Raised by a write whose quota refused it. The write allocated and
    changed nothing, and holds no stripe when it raises. *)

module Make
    (M : Memory_intf.MEMORY)
    (A : Memory_intf.ALLOCATOR)
    (S : Platform.Sync_intf.S) : sig
  type t

  (** {1 Lifecycle} *)

  val create : mem:M.t -> alloc:A.t -> config -> t
  (** Allocate and initialise the shared structures (control block,
      bucket table, LRU table, statistics area). *)

  val attach : mem:M.t -> alloc:A.t -> config -> ctrl:int -> t
  (** Reattach to a store found through a persistent root; geometry is
      read back from the control block at [ctrl]. *)

  val detach : t -> unit
  (** Persist volatile high-water marks (clean shutdown). *)

  val ctrl_off : t -> int

  val config : t -> config

  (** {1 Stripe groups (batch plane)}

      The item-lock table is striped; a batch executor can take every
      stripe a group of operations touches once, up front, and the
      per-op locking inside {!get}/{!delete}/{!touch} then skips the
      already-held stripes. Only non-allocating operations may run
      under a stripe group: allocation can evict, and an eviction pass
      takes its victims' stripes as a group of its own, which may rank
      below the stripes already held — same-class locks out of rank
      order. *)

  val stripe_of : t -> string -> int
  (** Item-lock stripe index the key hashes to, in
      [0 .. stripe_count - 1]. *)

  val stripe_count : t -> int

  val with_stripes : t -> stripes:int list -> (unit -> 'a) -> 'a
  (** [with_stripes t ~stripes f] locks each stripe in the order given,
      runs [f], and releases in reverse order however [f] exits; every
      store op holds its own stripe through it. [stripes] must be
      duplicate-free and sorted ascending — stripe mutexes share one
      lockdep class ranked by creation (= index) order, so an inverted
      order trips lockdep. A stripe this thread already pins on [t]
      (through any instantiation of {!Make}) is skipped, not taken
      twice; a call that acquires nothing just runs [f] and records
      nothing. *)

  (** {1 Operations (memcached command set)}

      With a {!quota}, a storing write that does not fit raises
      {!Over_quota}; delete and in-place incr/decr only charge. *)

  val get : t -> string -> get_result option

  val set :
    t -> ?quota:quota -> ?flags:int -> ?exptime:int -> string -> string ->
    store_result

  val add :
    t -> ?quota:quota -> ?flags:int -> ?exptime:int -> string -> string ->
    store_result

  val replace :
    t -> ?quota:quota -> ?flags:int -> ?exptime:int -> string -> string ->
    store_result

  val append : t -> ?quota:quota -> string -> string -> store_result

  val prepend : t -> ?quota:quota -> string -> string -> store_result

  val cas :
    t -> ?quota:quota -> ?flags:int -> ?exptime:int -> cas:int64 -> string ->
    string -> store_result

  val delete : t -> ?quota:quota -> string -> bool

  val incr : t -> ?quota:quota -> string -> int64 -> counter_result
  (** Unsigned 64-bit, wrapping — memcached semantics. *)

  val decr : t -> ?quota:quota -> string -> int64 -> counter_result
  (** Clamps at zero. *)

  val touch : t -> string -> int -> bool

  val flush_all : t -> unit

  val stats : t -> (string * string) list
  (** General statistics under the standard memcached key names
      ([cmd_get], [get_hits], [evictions], [expired_unfetched], ...). *)

  val stats_items : t -> (string * string) list
  (** Per-LRU-list occupancy and cold-end age ([items:<n>:number],
      [items:<n>:age]); only non-empty lists appear. *)

  val stats_slabs : t -> (string * string) list
  (** The allocator's per-size-class view plus totals. *)

  val stats_reset : t -> unit
  (** Zero the operation tallies. [curr_items] (live gauge) and
      [total_items] (recovery anchor: curr_items <= total_items)
      survive. *)

  val curr_items : t -> int

  (** {1 Bookkeeping-process duties} *)

  val maintain : ?hi:float -> ?lo:float -> t -> unit
  (** Evict from the LRU cold ends until usage is back under the low
      watermark (§3.2's intermittent cleaning). *)

  val evict_some : t -> hint:int -> int
  (** One eviction pass over the first LRU list, from [hint] on, that
      yields anything; returns how many items it reclaimed (0: every
      list's cold end is empty or referenced). A pass examines the
      [evict_batch] coldest items of its list and reclaims the idle
      ones. It takes their stripes as one ascending group, re-verifies
      each victim under it, and unlinks them from the list in one
      splice when they are still its tail run (one by one when not),
      then from their chains. Call it holding no stripe lock; a stripe
      pinned through {!with_stripes} is not taken twice. *)

  val evict_some_matching : t -> lru:int -> pred:(string -> bool) -> int
  (** One eviction pass, as in {!evict_some}, over LRU list [lru]'s
      cold end, reclaiming only items whose key satisfies [pred] —
      per-tenant quota eviction: with the tenant's items routed to
      their own list (see {!set_lru_selector}), a full tenant evicts
      only itself. A spared item colder than a victim breaks the
      victims' tail run, and the pass then unlinks them one by one. *)

  (** {1 Multi-tenancy hooks} *)

  val set_lru_selector : t -> (string -> int option) option -> unit
  (** Route keys to LRU lists: [Some l] pins the key's items to list
      [l mod lru_count]; [None] falls back to the built-in hash or
      size-class policy. Host-side state — reinstall after
      attach/recover. *)

  val set_evict_hook : t -> (key:string -> bytes:int -> unit) option -> unit
  (** Fired once per item the store reclaims on its own — eviction,
      the expiry crawler, or an expired item any op finds on its chain
      (not client deletes or replacement) — with the item's key and
      key+value byte count; runs under the item's stripe lock, so keep
      it lock-free. The tenant layer credits usage here. *)

  val resize : t -> bool
  (** Double the bucket table: stop-the-world migration under every
      lock stripe, bucket pointer swapped behind the Figure-3
      indirection. False if the allocator cannot supply the new table.
      (The paper's evaluation ran with this disabled; here it works.) *)

  val maybe_resize : ?lf:float -> t -> bool
  (** {!resize} once if the load factor exceeds [lf] (default 1.5). *)

  val load_factor : t -> float

  val reap_expired : ?limit:int -> t -> int
  (** LRU-crawler flavour: proactively unlink already-expired items
      from the LRU cold ends; returns how many were reclaimed. [limit]
      (default 1000) bounds the items examined: each list's cold end
      is walked for [limit / lru_count] items rounded up, so every
      list is looked at however small the limit. Each list is one
      pass of the same walk as {!evict_some}, keeping expired items
      instead of all idle ones. *)

  val fold_keys :
    t -> ('a -> string -> nbytes:int -> exptime:int -> 'a) -> 'a -> 'a
  (** Administrative walk over every live item (stop-the-world, like
      {!resize}). *)

  (** {1 Test hooks} *)

  val seq_read : t -> int -> int
  (** Stripe [s]'s seqlock version word. Odd exactly while some thread
      may be mutating the stripe's chains — after recovery every word
      must be even again, the cross-check the forensic report runs. *)

  val check_invariants : t -> unit
  (** Walk hash chains and LRU lists, verifying linkage, stored
      hashes, hash↔LRU membership, allocator-backed sizing, CAS
      monotonicity, refcounts and counter consistency. Call at
      quiescence. *)

  val recover : t -> int list
  (** Post-crash recovery; call only at quiescence (no client threads
      inside the store). Replaces every stripe/LRU/stats lock (a dead
      thread may own any of them), sifts the hash chains dropping items
      torn mid-link (bad backing block, size overflow, hash/bucket/key
      mismatch), zeroes refcounts held by dead readers, rebuilds every
      LRU list from the hash table (orphans spliced into only an LRU
      disappear), recounts [curr_items], and restores the CAS source
      above every CAS ever issued. Returns the offsets of every block
      the store still reaches — control block, tables, live items — the
      [live] input for [Ralloc.recover]. *)
end
