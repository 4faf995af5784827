(** Global telemetry switch and the installed environment.

    Telemetry must be near-free when off: every emitter guards on
    {!on}, which is a single ref read, and records host-side only —
    no telemetry path ever charges virtual time, so the cost model
    (and the nullcall overhead gate) see the same simulated latencies
    with telemetry on or off.

    The environment exists because the layers below the [SYNC]
    functors (telemetry, pku, shm, hodor) still need a clock and a way
    to charge modeled cost. Telemetry sits below all of them (it
    depends only on [tls] and [unix]), so the environment lives here.
    The Vm installs its own for the length of a run: the running
    virtual thread's clock, and a charge that advances it. The default
    serves real threads: the host clock, and free execution. *)

let enabled_at_start =
  match Sys.getenv_opt "TELEMETRY" with
  | Some ("0" | "off" | "false" | "no") -> false
  | _ -> true

let enabled = ref enabled_at_start

let on () = !enabled

let set_enabled b = enabled := b

type env = {
  now : unit -> int;  (** current time in ns *)
  charge : int -> unit;
  (** spend [n] modeled ns; [charge 0] is a zero-cost scheduler sync
      point (the Vm's crash check) *)
}

let default =
  { now = (fun () -> int_of_float (Unix.gettimeofday () *. 1e9));
    charge = ignore }

let installed = ref default

(** Current time in ns: virtual inside a Vm run, host time otherwise. *)
let now_ns () = !installed.now ()

(** Charge [n] ns of modeled CPU time to the caller (nothing when
    [n <= 0], like [Vm.Sync.advance]). *)
let advance n = if n > 0 then !installed.charge n

(** A scheduler sync point that charges no virtual time, so that
    deliberately tearable multi-word publishes (the flight recorder's
    info breadcrumbs) expose a kill window between their payload write
    and their commit stamp. A no-op outside a simulation: there is
    nothing to yield to, and the publish is atomic with respect to any
    in-process observer anyway. *)
let sync_point () = !installed.charge 0

(** Install an environment; returns the previous one so the caller can
    {!restore} it (the Vm does this in a [Fun.protect] finally). *)
let install env =
  let prev = !installed in
  installed := env;
  prev

let restore prev = installed := prev
