(** The defenses of the protection boundary, as data.

    Each constructor is one gate the shipped stack keeps closed; all
    are on by default. A red-team run turns one off with {!with_off}
    to show the attack it blocks, and the attack matrix
    ([Redteam.Matrix]) holds, for every member of {!all}, a scenario
    that breaches with it off and is blocked with it on. The library
    depends on nothing, so every layer (the codecs and telemetry
    included) can read it. *)

type t =
  | Gadget_scan
      (** [Hodor.Loader.admit]'s byte-granular gadget scan and
          digest-pinned trampoline records. Off: admission degrades to
          the legacy [scan_and_arm] and admits everything — gadget
          bytes in data islands, self-declared trampolines, patched
          images. *)
  | Gate_checks
      (** [Hodor.Trampoline.call]'s entry and exit gates. Off: a forged
          entry pkru is laundered through the exit restore into
          standing rights, and a [wrpkru] inside the call goes
          unnoticed. *)
  | Seccomp
      (** [Simos.Process.check_syscall]. Off: installed filters are
          recorded but never consulted. *)
  | Vkey_eviction
      (** [Pku.Vpkey]'s slot LRU eviction. Off: a full slot table
          raises [Pkey.Out_of_keys] on a miss — key exhaustion is
          denial of protection. *)
  | Vkey_owner_checks
      (** The owner check of [Pku.Vpkey.bind]. Off: any caller may
          bind (and so enable) any tenant's vkey. *)
  | Vkey_quarantine
      (** Re-tagging an evicted vkey's ranges to the quarantine key.
          Off: they keep the old hardware key, readable by whoever
          inherits the slot. *)
  | Parser_hardening
      (** The codecs' length bounds. Off: the ASCII parser reads data
          lengths [int_of_string]-style (negatives, hex, unbounded), so
          a negative length raises out of [String.sub], and the binary
          codec stops bounding value sizes. *)
  | Tenant_quota
      (** [Mc_core.Tenant.would_exceed]. Off: tenants write past their
          quotas and starve their neighbours. *)
  | Tenant_namespace
      (** Tenant key scoping ([Mc_core.Tenant.scope], the executor's
          rewrite). Off: keys pass through unprefixed, a forged prefix
          reads a neighbour's value, and [flush_all] reaches the whole
          store. *)
  | Ring_validation
      (** [Transport.Ring]'s window walk and fragment-clamped reads.
          Off: the consumer trusts slot headers verbatim, so a forged
          length reads past the ring pages. *)
  | Flight_publish_last
      (** [Telemetry.Flight.record]'s publish-last stamping. Off: the
          sequence word is stamped first, so a kill at the sync point of
          an info record ([Telemetry.Probe.tearable] decides which are)
          leaves a head record that claims publication but fails its
          checksum. *)

val all : t list

val name : t -> string
(** Kebab-case, e.g. ["gate-checks"]. *)

val on : t -> bool
(** Is the defense in place? An array read; charges nothing. *)

val with_off : t -> (unit -> 'a) -> 'a
(** [with_off d f] runs [f] with [d] off, then restores [d]'s previous
    setting however [f] exits, so nested calls unwind in order. *)
