(** One instrumentation point per chokepoint: a crossing, an item-lock
    stripe, an allocation, an op dispatch, a ring drain, a tenant scope,
    a trace ingress. Each edge is one call here, and that call writes
    the edge's flight breadcrumb (always), its span edge (only when the
    request's trace is sampled) and its keyed latency sample. With
    telemetry off an edge costs one {!Control.on} read, and nothing
    here ever charges virtual time.

    The probe decides which breadcrumbs are state records and which
    are info records ({!tearable}). State records (crossing, stripe and
    ring-drain edges) mark the transitions the post-mortem classifier
    keys on: they publish with no sync point, from an edge called next
    to the in-memory truth they mirror (the trampoline's depth, the
    held stripes, the drain flag), so under the Vm's cooperative
    scheduler record and state move atomically and the classifier
    never disagrees with ground truth at a kill site. Each carries the
    post-transition state. Info records (op dispatch, tenant scope,
    large alloc/free) are annotations whose publish crosses one
    {!Control.sync_point}, so the crash sweep exercises the torn-write
    window at every such site. *)

(* The [stats latency] table: virtual ns per crossing ([hodor_call])
   and per op (its command name), and ops per batch crossing
   ([batch_size]). Its mutex guards effect-free sections only. *)
module Latency = struct
  let lock = Mutex.create ()

  let tbl : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let record key v =
    with_lock (fun () ->
      let h =
        match Hashtbl.find_opt tbl key with
        | Some h -> h
        | None ->
          let h = Histogram.create () in
          Hashtbl.add tbl key h;
          h
      in
      Histogram.record h (max v 0))

  (** A copy of one key's histogram, if it has been seen. *)
  let get key =
    with_lock (fun () ->
      Option.map
        (fun h ->
          let c = Histogram.create () in
          Histogram.merge ~into:c h;
          c)
        (Hashtbl.find_opt tbl key))

  let keys () =
    with_lock (fun () ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []))

  let kvs () =
    List.concat_map
      (fun k -> Option.fold ~none:[] ~some:(Histogram.kvs ~prefix:k) (get k))
      (keys ())

  let reset () = with_lock (fun () -> Hashtbl.reset tbl)
end

let tearable : Flight.kind -> bool = function
  | Op_dispatch | Tenant_scope | Tenant_unscope | Alloc_large | Free_large ->
    true
  | Cross_enter | Cross_exit | Stripe_acquire | Stripe_release
  | Ring_drain_begin | Ring_drain_end ->
    false

let crumb ?a ?b ?c kind = Flight.record ~tearable:(tearable kind) ?a ?b ?c kind

(* ---- Edges ------------------------------------------------------------- *)

(** A crossing's way in, after the depth increment; returns the
    [crossing] span for {!cross_exit}. *)
let cross_enter ?batch ~depth () =
  if not (Control.on ()) then Span.null
  else begin
    (match batch with Some n -> Latency.record "batch_size" n | None -> ());
    let sp = Span.start ~phase:"crossing" () in
    crumb Cross_enter ~a:depth;
    sp
  end

(** The way out, after the depth decrement; [since] is the entry stamp. *)
let cross_exit sp ~depth ~since =
  if Control.on () then begin
    crumb Cross_exit ~a:depth;
    Span.finish sp;
    Latency.record "hodor_call" (Control.now_ns () - since)
  end

(** [lock ()] takes and registers the stripe, returning the count held. *)
let stripe_acquire ~stripe lock =
  if not (Control.on ()) then ignore (lock ())
  else
    let held = Span.around ~phase:"stripe_wait" lock in
    crumb Stripe_acquire ~a:held ~b:stripe

(** After the stripe left the held list, [held] remaining. *)
let stripe_release ~stripe ~held ~wait_ns ~hold_ns =
  if Control.on () then begin
    Contention.record ~stripe ~wait_ns ~hold_ns;
    crumb Stripe_release ~a:held ~b:stripe
  end

(** [f] returns the block's offset first. *)
let alloc ~bytes ~large f =
  if not (Control.on ()) then f ()
  else
    Span.around ~phase:"alloc" (fun () ->
      let ((off, _) as r) = f () in
      if large then crumb Alloc_large ~a:bytes ~b:off;
      r)

(** [f] returns the bytes of the large block it freed, or 0. *)
let free ~off f =
  if not (Control.on ()) then ignore (f ())
  else
    Span.around ~phase:"free" (fun () ->
      let large = f () in
      if large > 0 then crumb Free_large ~a:large ~b:off)

let dispatch ~op f =
  if not (Control.on ()) then f ()
  else
    Span.around ~phase:"exec" (fun () ->
      crumb Op_dispatch ~a:(Forensics.op_code op) ~b:(-1) ~c:(-1);
      let t0 = Control.now_ns () in
      let r = f () in
      Latency.record op (Control.now_ns () - t0);
      r)

(** [draining] is the caller's flag the records mirror: each edge flips
    it next to its record, and any exit of [f] clears both. *)
let ring_drain ~draining ~conn ~msgs f =
  draining := true;
  crumb Ring_drain_begin ~a:1 ~b:conn ~c:msgs;
  Fun.protect
    ~finally:(fun () ->
      draining := false;
      crumb Ring_drain_end ~a:0 ~b:conn ~c:msgs)
    f

(** A kill inside [f] leaves [Tenant_scope] as the lane's last tenant
    record, so the forensic report names the tenant. *)
let tenant ~slot f =
  if not (Control.on ()) then f ()
  else begin
    crumb Tenant_scope ~a:slot;
    Fun.protect ~finally:(fun () -> crumb Tenant_unscope ~a:slot) f
  end

(** [queued_since] backdates the root to the enqueue stamp and adds a
    closed [queue] child over exactly the queueing window. *)
let ingress ?queued_since ~op () =
  if not (Control.on ()) then Span.null
  else begin
    let root = Span.ingress ?t_start:queued_since ~op () in
    (match queued_since with
     | Some at -> Span.finish (Span.start ~t_start:at ~phase:"queue" ())
     | None -> ());
    root
  end
