(** The tenant registry: multi-tenant state persisted in the shared
    heap.

    A tenant is a named principal with (1) a key-prefix namespace
    ([<name>/]) that every tenant-scoped operation is confined to by
    construction, (2) byte/item quotas with usage accounting, (3) a
    virtual protection key ({!Pku.Vpkey}) acting as its capability —
    tenant-scoped calls bind it under the caller's uid, so only the
    owner (or root) can exercise the namespace — and (4) its own
    stats rollup ([cmd_get]/[get_hits]/[cmd_set]/[evictions]).

    The registry lives in one Ralloc block inside the protected heap,
    anchored under its own persistent root, so membership, quotas and
    vkey ids survive crashes; usage counters are recomputed from the
    store during recovery (they may be mid-update at the kill point).

    This module is the registry over a {!Shm.Region} plus the one
    quota policy every front end shares ({!admit}); callers must hold
    access to the heap's pages (be inside a library crossing, or in
    kernel mode). The store operations themselves, and recovery, stay
    with the callers: [Plib] (lib/core/plib_store.ml) for in-process
    tenants, the server's executor for tenant-bound connections. *)

type t

val max_name : int
(** 40 bytes. *)

(** {1 Layout} *)

val size_for : max:int -> int
(** Bytes needed for a registry of [max] tenant slots. *)

val format : Shm.Region.t -> base:int -> max:int -> t
(** Initialise an empty registry in the block at [base]. *)

val attach : Shm.Region.t -> base:int -> t
(** Reattach; raises [Invalid_argument] if the magic doesn't match. *)

val base : t -> int

val max_tenants : t -> int

(** {1 Membership} *)

val register :
  t -> name:string -> uid:int -> byte_quota:int -> item_quota:int -> int
(** New tenant; returns its slot. The vkey is {e not} allocated here
    (the caller allocates one owned by [uid] and stores it with
    {!set_vkey}). Raises [Invalid_argument] on a duplicate name, a
    full registry, or a name that is empty, longer than {!max_name},
    or contains ['/'], spaces or control bytes. *)

val find : t -> string -> int option

val count_active : t -> int

val iter_active : t -> (int -> unit) -> unit

val active : t -> int -> bool

val name_of : t -> int -> string

val uid_of : t -> int -> int

val vkey_of : t -> int -> int

val set_vkey : t -> int -> int -> unit

(** {1 Namespacing} *)

val prefix : t -> int -> string
(** [name ^ "/"]. *)

val scope : t -> int -> string -> string
(** The tenant-confined key: [prefix ^ key] (identity when
    [Defenses.Tenant_namespace] is off — the pre-fix stack). *)

val owner_slot_of_key : t -> string -> int option
(** Which active tenant's namespace a raw store key belongs to, by
    prefix. *)

(** {1 Quotas and accounting} *)

val byte_quota : t -> int -> int

val item_quota : t -> int -> int

val bytes_used : t -> int -> int

val items_used : t -> int -> int

val charge : t -> int -> bytes:int -> items:int -> unit
(** Adjust usage by a (possibly negative) delta, clamped at zero. *)

val set_usage : t -> int -> bytes:int -> items:int -> unit
(** Recovery: overwrite usage with recomputed truth. *)

val would_exceed : t -> int -> add_bytes:int -> add_items:int -> bool
(** Would the delta push usage past a quota? Always false for a delta
    that adds nothing, and with [Defenses.Tenant_quota] off. *)

(** {1 Per-tenant stats} *)

type stat = Cmd_get | Get_hits | Cmd_set | Evictions

val bump : t -> int -> stat -> unit

val stat : t -> int -> stat -> int

val stats_kvs : t -> (string * string) list
(** The `stats tenants` payload: for each active tenant,
    [tenant:<name>:{cmd_get,get_hits,cmd_set,evictions,bytes,items,
    bytes_quota,items_quota}]. *)

val reset_stats : t -> unit
(** Zero the op tallies of every tenant. Membership, quotas, usage
    and vkeys are untouched — `stats reset` must not unregister
    anyone. *)

(** {1 Admission} *)

val admit :
  t -> int ->
  evict:(lru:int -> pred:(string -> bool) -> int) ->
  (Store.quota -> 'r) -> 'r option
(** [admit t slot ~evict op] runs the store op [op] as tenant [slot]
    under its quotas. [evict] is one tenant-local eviction pass over
    LRU list [lru] restricted to keys satisfying [pred] (the store's
    [evict_some_matching]).

    [op] hands the tenant's {!Store.quota} to the one store write it
    makes, which sizes, admits and charges itself under its key's
    stripe, so concurrent writers of one tenant cannot make its usage
    drift from the store's contents. When the write does not fit
    ({!Store.Over_quota}), one eviction pass over the tenant's own
    items runs outside the write's stripe and the write runs again, up
    to 64 passes; then the result is [None], with nothing stored or
    allocated. Front ends count a storage op as one [Cmd_set]
    themselves, admitted or refused. *)
