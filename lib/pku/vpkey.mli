(** Virtual protection keys (libmpk-style).

    PKU gives 16 hardware keys; a multi-tenant cache needs one
    protection domain per tenant, and far more than 16 tenants. This
    layer virtualizes {!Pkey}: {!alloc} hands out an unbounded supply
    of {e virtual} keys, and a slot table multiplexes the bound subset
    onto hardware keys on demand, exactly as libmpk (Park et al., ATC
    '19) multiplexes [pkey_mprotect] domains:

    - {!bind} returns the hardware key currently backing a vkey. A
      miss grabs a free hardware slot (allocating from {!Pkey} up to a
      configurable cap) or {e evicts} the least-recently-bound vkey.
    - Evicting a vkey re-tags every memory range attached to it to a
      dedicated {e quarantine} key that no thread ever enables, so an
      unbound vkey's memory is unreadable by everyone. The ranges are
      lazily re-tagged to the new hardware key on the vkey's next
      bind ({!attach_retag} registers the re-tag callback).
    - A thread holds a vkey's rights only inside a grant window
      ({!with_grant}), as libmpk's [mpk_begin]/[mpk_end] brackets a
      domain: the window binds and pins the vkey, opens its hardware
      key in pkru, and on exit restores the pkru it found. A pinned
      vkey is never evicted, so no right outlives its window and slot
      reuse never leaks rights across vkeys.

    Each {!Machine} has its own slot table (vkeys, slots, cap,
    counters); every call below acts on the calling thread's.

    Binds, slot misses, evictions and pin refusals are counted in
    [Telemetry.Counters] ([vpkey_binds] / [vpkey_slot_misses] /
    [vpkey_evictions] / [vpkey_pin_refusals]). Every range a re-tag
    walks charges one [pkey_mprotect] ({!Platform.Cost_model}) to the
    caller through [Telemetry.Control.advance], after the slot table
    is unlocked.

    Trust model: this module is kernel-side code (libmpk's kernel
    module). Re-tag callbacks run with whatever privilege the
    registrant gave them — registrants that manage seccomp-filtered
    regions must wrap their callback in [Region.kernel_mode]. *)

type t = int
(** A virtual key id (>= 1). *)

exception Unknown_vkey of int

exception Permission_denied of string
(** Raised by {!bind}/{!with_grant} when [~owner] does not match the
    vkey's owner (and [Defenses.Vkey_owner_checks] is on). *)

exception All_slots_pinned
(** A bind needed a slot and every slot backs an open window (a pin
    refusal). Windows are short: wait and retry. *)

(** {1 Allocation} *)

val alloc : ?owner:int -> unit -> t
(** A fresh virtual key. [owner] (default 0 = root) is the uid allowed
    to bind it; uid 0 bypasses ownership checks. *)

val free : t -> unit
(** Quarantines the vkey's ranges, retires the id, and releases its
    slot once no window holds it. @raise Unknown_vkey on double-free. *)

val restore : id:t -> owner:int -> unit
(** Recovery path: re-create vkey [id] (unbound) if this process does
    not know it — used to rebuild the slot table from a persisted
    tenant registry after a crash. Idempotent. *)

(** {1 Binding} *)

val bind : ?owner:int -> t -> Pkey.t
(** The hardware key backing the vkey, binding it to a slot first if
    needed (evicting the LRU unpinned vkey when the table is full) and
    lazily re-tagging its attached ranges. [owner] is the caller's uid
    for the ownership check; omit it only from trusted kernel-side code.
    @raise Permission_denied on an ownership mismatch.
    @raise All_slots_pinned if every slot is pinned.
    @raise Pkey.Out_of_keys if the table is full and
    [Defenses.Vkey_eviction] is off. *)

val hw_key : t -> Pkey.t option
(** The slot currently backing the vkey, if bound. *)

val owner_of : t -> int

val attach_retag : t -> (Pkey.t -> unit) -> unit
(** Register a callback that re-tags one of the vkey's memory ranges
    to a given hardware key. Called immediately with the current
    mapping (the quarantine key if unbound), then on every eviction
    and rebind. *)

val quarantine_key : unit -> Pkey.t
(** The quarantine key (allocated on first use). Never enable it. *)

(** {1 Grant windows} *)

val with_grant : ?owner:int -> t -> (Pkey.t -> 'a) -> 'a
(** [with_grant vk f] binds and pins [vk] as {!bind} does (and raises
    as it does), enables its hardware key in the calling thread's pkru
    and runs [f] with that key. However [f] exits, the pkru saved at
    entry is restored and the pin dropped. A window must end in bounded
    time without help from another thread: it never parks, and never
    opens a window on another vkey. *)

val thread_died : unit -> unit
(** Run on a thread killed abruptly: drop its open windows' pins. *)

(** {1 Capacity and introspection} *)

val set_hw_cap : int -> unit
(** Cap on hardware slots the table may occupy (clamped to 1..14;
    default 12, leaving headroom for Hodor library keys and the
    quarantine key). *)

val slots_in_use : unit -> int

val live_vkeys : unit -> int

val binds : unit -> int
(** Binds on the machine's slot table (monotonic). *)

val slot_misses : unit -> int

val evictions : unit -> int

val pin_refusals : unit -> int

val check_invariants : unit -> unit
(** Slot table consistency: every slot's occupant points back at the
    slot, bound count within cap, quarantine key never a slot.
    @raise Failure on violation. *)

val bookkeeper_died : unit -> unit
(** Model the bookkeeping process dying: its slot table is process
    memory, so every vkey, slot, binding and counter is gone and the
    hardware keys go back to the machine. Recovery rebuilds the vkeys
    from the persisted registry through {!restore}. *)
