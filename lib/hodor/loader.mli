(** The modified (trusted) loader (paper §2, §3.3): scans binaries for
    stray [wrpkru] opcodes, arms hardware breakpoints (falling back to
    page gating past four), and runs library initialisation with the
    owner's effective uid. The admission path ({!admit}) additionally
    defends against Garmr-style gadget attacks that breakpoints cannot
    cover. *)

type report = {
  strays_found : int;
  breakpoints : int;
  pages_gated : int;
}

val scan_and_arm : Pku.Debug_regs.t -> Pku.Insn.binary -> report
(** The legacy instruction-granular pass: breakpoint every stray
    pkru-writing instruction, page-gate past four. Misses byte-level
    gadgets; {!admit} is the full check. *)

(** {1 Admission} *)

type verdict = Admitted of report | Rejected of string

val install_trampolines : Pku.Insn.binary -> unit
(** Record that the loader itself installed this binary's trampolines
    (the trusted link step). The record is pinned to a digest of the
    byte image: a patched or renamed binary cannot inherit it. The
    records belong to the current {!Machine}. *)

val admit : Pku.Debug_regs.t -> Pku.Insn.binary -> verdict
(** Full admission: claimed trampolines must match the loader's own
    installation records (digest-pinned), and the byte image must
    contain no [wrpkru]/[xrstor] pattern at any offset other than the
    exact start of a recorded trampoline — misaligned patterns inside
    immediates or data islands reject the binary, since no hardware
    breakpoint can trap a jump into the middle of an instruction.
    Admitted binaries are also run through {!scan_and_arm}. *)

val init_library : Library.t -> store_path:string -> Shm.Region.t
(** Open the library's backing store file under the {e owner's}
    effective uid (the §3.3 euid dance), run the library's init
    routine, revert the euid, and return the mapped region.
    @raise Simos.Sim_fs.Eacces if even the owner may not open it. *)

val exec : Pku.Debug_regs.t -> Library.t -> Pku.Insn.binary -> unit
(** Interpret a pseudo-binary: [Call]s go through trampolines; a
    [Wrpkru]/[Xrstor] at a breakpointed or gated address raises
    {!Pku.Fault.Breakpoint_trap}; on an unscanned binary it executes —
    the attack the loader exists to stop. [Data] islands are skipped
    (straight-line execution never reaches them). *)
