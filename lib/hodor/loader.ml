(** The modified (trusted) loader.

    Responsibilities, as in the paper (§2, §3.3):
    - scan an about-to-run binary for stray [wrpkru] opcodes and plant
      hardware breakpoints on them; past four strays (the number of
      debug registers) fall back to gating the containing pages;
    - run each linked protected library's initialisation routine
      {e before main}, with the effective uid of the library's owner,
      so the library can open its backing store file even though the
      client's own uid could not (§3.3's euid dance);
    - install trampolines for the library's entry points (modeled by
      {!Trampoline}).

    Garmr's attacks on this design motivate the admission path
    ({!admit}): instruction-granular breakpoints miss a [wrpkru]
    byte pattern hidden inside an immediate or a data island (a
    hijacked indirect jump can land mid-instruction, where no
    breakpoint was planted), and the trampoline table inside a binary
    is attacker-authored, so "the wrpkru is at a declared trampoline"
    proves nothing. Admission therefore (1) cross-checks claimed
    trampolines against the loader's own installation records, keyed
    by an image digest so a renamed or patched binary cannot inherit
    a blessing, and (2) scans the {e byte image} for gadget patterns
    at every offset, rejecting the binary outright instead of trying
    to trap what breakpoints cannot cover. *)

module Process = Simos.Process

type report = {
  strays_found : int;
  breakpoints : int;
  pages_gated : int;
}

let scan_and_arm (dr : Pku.Debug_regs.t) (b : Pku.Insn.binary) : report =
  let strays = Pku.Insn.stray_wrpkru_addrs b in
  let bps = ref 0 and gated = ref 0 in
  List.iter
    (fun addr ->
      match Pku.Debug_regs.install dr ~binary:b.Pku.Insn.binary_name ~addr with
      | () -> incr bps
      | exception Pku.Debug_regs.Exhausted ->
        let page = Pku.Debug_regs.page_of_addr addr in
        Pku.Debug_regs.gate_page dr ~binary:b.Pku.Insn.binary_name ~page;
        incr gated)
    strays;
  { strays_found = List.length strays; breakpoints = !bps;
    pages_gated = !gated }

(* ---- Admission ------------------------------------------------------ *)

type verdict = Admitted of report | Rejected of string

(* Trampolines the loader itself installed, keyed by binary name and
   pinned to an image digest: a binary's own trampoline table is
   attacker-authored, so admission only trusts entries recorded here,
   and only when the image has not changed since installation. The
   records are the machine's. *)
let installed_trampolines : (string, string * int list) Hashtbl.t Machine.key =
  Machine.new_key (fun () -> Hashtbl.create 8)

let digest b = Digest.string (Pku.Insn.byte_image b)

let install_trampolines (b : Pku.Insn.binary) =
  Hashtbl.replace (Machine.get installed_trampolines) b.Pku.Insn.binary_name
    (digest b, b.Pku.Insn.trampoline_addrs)

let reject reason =
  Telemetry.Counters.incr Telemetry.Counters.Id.loader_rejects;
  Telemetry.Trace.emit ~sev:Telemetry.Trace.Warn ~subsys:"loader" reason;
  Rejected reason

let admit (dr : Pku.Debug_regs.t) (b : Pku.Insn.binary) : verdict =
  if not (Defenses.on Gadget_scan) then Admitted (scan_and_arm dr b)
  else begin
    let name = b.Pku.Insn.binary_name in
    let claimed = b.Pku.Insn.trampoline_addrs in
    let recorded = Hashtbl.find_opt (Machine.get installed_trampolines) name in
    let trampoline_check =
      match claimed, recorded with
      | [], _ -> Ok []
      | _ :: _, None ->
        Error
          (Printf.sprintf
             "%s: claims %d trampolines the loader never installed" name
             (List.length claimed))
      | _ :: _, Some (d, addrs) ->
        if d <> digest b then
          Error (name ^ ": image tampered since trampoline installation")
        else if List.sort compare claimed <> List.sort compare addrs then
          Error (name ^ ": trampoline table does not match the loader's records")
        else Ok addrs
    in
    match trampoline_check with
    | Error reason -> reject reason
    | Ok trampolines ->
      (* Byte-granular gadget scan: every wrpkru/xrstor pattern in the
         image must be the encoding of a loader-installed trampoline,
         at its exact instruction start — anything else (stray insn,
         misaligned pattern inside an immediate, data island) rejects
         the binary, because no breakpoint can cover a jump into the
         middle of an instruction. *)
      let img = Pku.Insn.byte_image b in
      let offs = Pku.Insn.byte_offsets b in
      let legit_offsets =
        List.filter_map
          (fun addr ->
            if addr >= 0 && addr < Array.length offs then Some offs.(addr)
            else None)
          trampolines
      in
      let bad =
        List.find_opt
          (fun (off, kind) ->
            match kind with
            | Pku.Insn.Gadget_wrpkru -> not (List.mem off legit_offsets)
            | Pku.Insn.Gadget_xrstor -> true)
          (Pku.Insn.find_gadgets img)
      in
      (match bad with
       | Some (off, Pku.Insn.Gadget_wrpkru) ->
         reject (Printf.sprintf "%s: wrpkru gadget at byte +%d" name off)
       | Some (off, Pku.Insn.Gadget_xrstor) ->
         reject (Printf.sprintf "%s: xrstor gadget at byte +%d" name off)
       | None -> Admitted (scan_and_arm dr b))
  end

(* Library initialisation with the owner's effective uid: open the
   store's backing file as the owner, run init, revert. The client
   process never holds the rights itself. *)
let init_library (lib : Library.t) ~store_path =
  let p = Process.current () in
  let saved = Process.euid p in
  Process.set_euid p (Library.owner_uid lib);
  Fun.protect
    ~finally:(fun () -> Process.set_euid p saved)
    (fun () ->
      let region =
        Simos.Sim_fs.open_region ~euid:(Process.euid p) ~write:true store_path
      in
      (match Library.init_fn lib with
       | Some f -> Shm.Region.kernel_mode f
       | None -> ());
      region)

(* Minimal interpreter over pseudo-binaries: runs application "text",
   demonstrating that a stray wrpkru traps while trampoline-mediated
   calls work. Used by tests and the security example. *)
let exec (dr : Pku.Debug_regs.t) (lib : Library.t) (b : Pku.Insn.binary) =
  Array.iteri
    (fun addr insn ->
      match insn with
      | Pku.Insn.Compute n -> Telemetry.Control.advance n
      | Pku.Insn.Ret -> ()
      | Pku.Insn.Data _ ->
        (* a data island is never reached by straight-line execution;
           only a hijacked jump lands in it (see Redteam.Gadget) *)
        ()
      | Pku.Insn.Call entry ->
        (match Library.find_export lib entry with
         | Some f -> Trampoline.call lib f
         | None -> failwith ("unresolved symbol: " ^ entry))
      | Pku.Insn.Xrstor v ->
        if Pku.Debug_regs.trips dr ~binary:b.Pku.Insn.binary_name ~addr then
          Pku.Fault.breakpoint_trap
            "%s+%d: stray xrstor trapped by loader breakpoint"
            b.Pku.Insn.binary_name addr
        else
          (* unscanned binary: pkru rewritten from attacker memory *)
          Pku.Pkru.wrpkru v
      | Pku.Insn.Wrpkru v ->
        if Pku.Debug_regs.trips dr ~binary:b.Pku.Insn.binary_name ~addr then
          Pku.Fault.breakpoint_trap
            "%s+%d: stray wrpkru trapped by loader breakpoint"
            b.Pku.Insn.binary_name addr
        else if List.mem addr b.Pku.Insn.trampoline_addrs then
          (* a legitimate trampoline site *)
          Pku.Pkru.wrpkru v
        else
          (* unscanned binary: the attack the loader exists to stop *)
          Pku.Pkru.wrpkru v)
    b.Pku.Insn.text
