(** Simulated OS processes.

    A "process" here is an identity — pid, uid/euid, liveness — that
    threads (real or virtual) bind to with {!with_process}. It gives
    the reproduction the parts of process semantics the paper depends
    on:

    - distinct uids, so Hodor's file-permission story (the library
      initialisation runs with the bookkeeping process's effective uid)
      is testable;
    - independent failure: {!kill} marks a process dead; its threads
      observe that at cancellation points ({!check_alive}) — except
      while inside a protected-library call, which Hodor lets run to
      completion (that exception is implemented in {!Hodor}, which
      consults {!set_in_library}/{!killed_at}). *)

type status = Running | Killed of string | Exited

(* The syscalls the simulation models, each standing for the real one
   a PKU sandbox must police: file-system access, signal delivery, and
   the pkey management calls Garmr shows an unfiltered sandbox escapes
   through (pkey_alloc/pkey_free exhaustion and hijack,
   pkey_mprotect retagging of shared pages). *)
type syscall =
  | Sys_open
  | Sys_unlink
  | Sys_kill
  | Sys_pkey_alloc
  | Sys_pkey_free
  | Sys_pkey_mprotect

let syscall_name = function
  | Sys_open -> "open"
  | Sys_unlink -> "unlink"
  | Sys_kill -> "kill"
  | Sys_pkey_alloc -> "pkey_alloc"
  | Sys_pkey_free -> "pkey_free"
  | Sys_pkey_mprotect -> "pkey_mprotect"

type t = {
  pid : int;
  pname : string;
  uid : int;
  mutable euid : int;
  mutable status : status;
  mutable killed_at_ns : int option;
  mutable kill_count : int;  (** total {!kill} deliveries, duplicates included *)
  in_library : int Atomic.t;  (** threads currently inside a protected call *)
  mutable filter : syscall list option;
  (** seccomp-style allowlist; [None] = unfiltered (no filter ever
      installed) *)
}

exception Process_killed of string
(** Raised at a cancellation point of a thread whose process died. *)

exception Seccomp_violation of string
(** A filtered process attempted a syscall outside its allowlist. *)

let next_pid = Atomic.make 1

let make ?(uid = 0) name =
  { pid = Atomic.fetch_and_add next_pid 1; pname = name; uid; euid = uid;
    status = Running; killed_at_ns = None; kill_count = 0;
    in_library = Atomic.make 0; filter = None }

let init_process = make ~uid:0 "init"

let current_key = Tls.new_key (fun () -> ref init_process)

let current () = !(Tls.get current_key)

let with_process p f =
  let cell = Tls.get current_key in
  let saved = !cell in
  cell := p;
  Fun.protect ~finally:(fun () -> cell := saved) f

let pid t = t.pid

let name t = t.pname

let uid t = t.uid

let euid t = t.euid

let set_euid t e = t.euid <- e

let alive t = t.status = Running

let status t = t.status

(* Death is once: the first kill fixes the timestamp and signal the
   grace-window arithmetic uses; later deliveries to an already-dead
   process are explicit no-ops, counted in [kill_count] so callers
   (and the grace tests) can observe that a duplicate arrived rather
   than having it silently swallowed. A duplicate timestamped before
   the recorded death is a driver bug — time cannot run backwards. *)
(* Filter installation mirrors seccomp(2)'s one-way ratchet: the first
   install sets the allowlist, every later one can only intersect with
   it. A sandboxed attacker re-running install_filter with a wider
   list gains nothing. *)
let install_filter t allowed =
  t.filter <-
    (match t.filter with
     | None -> Some allowed
     | Some cur -> Some (List.filter (fun sc -> List.mem sc cur) allowed))

let filter t = t.filter

let check_syscall sc =
  if Defenses.on Seccomp && not (Shm.Region.in_kernel_mode ()) then begin
    let p = current () in
    match p.filter with
    | None -> ()
    | Some allowed ->
      if not (List.mem sc allowed) then begin
        Telemetry.Counters.incr Telemetry.Counters.Id.seccomp_denials;
        Telemetry.Trace.emit ~sev:Telemetry.Trace.Warn ~subsys:"seccomp"
          (Printf.sprintf "%s: %s denied by filter" p.pname (syscall_name sc));
        raise
          (Seccomp_violation
             (Printf.sprintf "%s: syscall %s blocked by seccomp filter"
                p.pname (syscall_name sc)))
      end
  end

(* Route the pkey-management "syscalls" of lib/pku and lib/shm through
   the filter: the default machine's gate, which every machine created
   later boots with. A hook keeps the dependency arrows pointing
   simos -> pku and simos -> shm. *)
let () =
  Machine.set_syscall_gate (function
    | `Alloc -> check_syscall Sys_pkey_alloc
    | `Free -> check_syscall Sys_pkey_free
    | `Mprotect -> check_syscall Sys_pkey_mprotect)

let kill ?(signal = "SIGKILL") ~now_ns t =
  check_syscall Sys_kill;
  t.kill_count <- t.kill_count + 1;
  match t.status with
  | Running ->
    t.status <- Killed signal;
    t.killed_at_ns <- Some now_ns
  | Killed _ ->
    (match t.killed_at_ns with
     | Some first when now_ns < first ->
       invalid_arg
         (Printf.sprintf
            "Process.kill: duplicate %s for %s timestamped %dns before its \
             recorded death"
            signal t.pname (first - now_ns))
     | _ -> ())
  | Exited -> ()

let exit t = if t.status = Running then t.status <- Exited

let killed_at t = t.killed_at_ns

let kill_count t = t.kill_count

(* Library-call accounting, used by Hodor's completion guarantee. *)

let enter_library t = Atomic.incr t.in_library

let leave_library t = Atomic.decr t.in_library

let in_library_calls t = Atomic.get t.in_library

(* A cancellation point: ordinary (non-library) code of a dead process
   stops here. Hodor-protected code never calls this while holding
   library state; it checks only at trampoline exit. *)
let check_alive () =
  let p = current () in
  match p.status with
  | Running -> ()
  | Killed s -> raise (Process_killed (Printf.sprintf "%s: %s" p.pname s))
  | Exited -> raise (Process_killed (p.pname ^ ": exited"))
