(** The two client APIs of §3.1.

    {b Classic API} — a drop-in replacement for libmemcached: every
    call takes a [memcached_st]. Behind it sits either the socket
    backend (talking to a {!Mc_server} instance, as stock libmemcached
    would) or the protected-library backend (direct Hodor calls). With
    the plib backend, the [memcached_st]'s server list and protocol
    configuration are irrelevant: configuration calls become no-ops by
    default, or errors when the application opts into strict mode to
    aid migration.

    {b Direct API} — the new, slimmer interface that omits the
    [memcached_st] argument entirely.

    {b Async API} — memcached's callback-style interface exists to
    hide socket latency; with the protected library every call
    completes immediately, so the callback is invoked on the spot,
    right after the trampoline returns (§3.1). *)

module Make (S : Platform.Sync_intf.S) = struct
  (* One transport for the library's server and every socket client,
     so they share one listener namespace; pass it to a standalone
     [Mc_server.Server.Make (S) (T)] too. *)
  module T = Transport.Sock.Make (S)
  module Plib = Plib_store.Make (S) (T)
  module Sock = Socket_client.Make (S) (T)

  type backend = Plib_backend of Plib.t | Socket_backend of Sock.t

  type behavior =
    | BEHAVIOR_BINARY_PROTOCOL
    | BEHAVIOR_NO_BLOCK
    | BEHAVIOR_TCP_NODELAY
    | BEHAVIOR_SND_TIMEOUT
    | BEHAVIOR_RCV_TIMEOUT
    | BEHAVIOR_SERVER_FAILURE_LIMIT

  type memcached_st = {
    backend : backend;
    mutable strict_config : bool;
    behaviors : (behavior, int) Hashtbl.t;
  }

  open Errors

  let memcached_create backend =
    { backend; strict_config = false; behaviors = Hashtbl.create 8 }

  let memcached_strict_configuration st flag = st.strict_config <- flag

  (* Network-protocol knobs mean nothing without a network; no-op by
     default, error under strict mode to flag migration work (§3.1). *)
  let memcached_behavior_set st behavior value =
    match st.backend with
    | Socket_backend _ ->
      Hashtbl.replace st.behaviors behavior value;
      MEMCACHED_SUCCESS
    | Plib_backend _ ->
      if st.strict_config then
        MEMCACHED_NOT_SUPPORTED
          "network behaviors are meaningless for a protected library"
      else MEMCACHED_SUCCESS

  let memcached_behavior_get st behavior =
    match Hashtbl.find_opt st.behaviors behavior with Some v -> v | None -> 0

  (* The backend's exchange: one crossing into the library's executor,
     rooted at span [plib.<name>], or one socket round trip. {!Typed}
     decodes either reply, so no call below looks at the backend. *)
  let rt st name : Typed.rt =
    match st.backend with
    | Plib_backend p -> Plib.one name p
    | Socket_backend s -> Sock.roundtrip s

  (* ---- Retrieval ------------------------------------------------------ *)

  let memcached_gets st key : (string * int * int64, Errors.t) result =
    match Typed.get (rt st "get") key with
    | Some g ->
      Ok (g.Mc_core.Store.value, g.Mc_core.Store.flags, g.Mc_core.Store.cas)
    | None -> Error MEMCACHED_NOTFOUND

  let memcached_get st key : (string * int, Errors.t) result =
    Result.map (fun (v, f, _) -> (v, f)) (memcached_gets st key)

  (* ---- Storage --------------------------------------------------------- *)

  let of_store_result : Mc_core.Store.store_result -> Errors.t = function
    | Mc_core.Store.Stored -> MEMCACHED_SUCCESS
    | Mc_core.Store.Not_stored -> MEMCACHED_NOTSTORED
    | Mc_core.Store.Exists -> MEMCACHED_DATA_EXISTS
    | Mc_core.Store.Not_found -> MEMCACHED_NOTFOUND
    | Mc_core.Store.No_memory -> MEMCACHED_MEMORY_ALLOCATION_FAILURE

  let memcached_set st ?flags ?exptime key data =
    of_store_result (Typed.set (rt st "set") ?flags ?exptime key data)

  let memcached_add st ?flags ?exptime key data =
    of_store_result (Typed.add (rt st "add") ?flags ?exptime key data)

  let memcached_replace st ?flags ?exptime key data =
    of_store_result (Typed.replace (rt st "replace") ?flags ?exptime key data)

  let memcached_append st key extra =
    of_store_result (Typed.append (rt st "append") key extra)

  let memcached_prepend st key extra =
    of_store_result (Typed.prepend (rt st "prepend") key extra)

  let memcached_cas st ?flags ?exptime ~cas key data =
    of_store_result (Typed.cas (rt st "cas") ?flags ?exptime ~cas key data)

  (* ---- Delete / counters / touch ----------------------------------------- *)

  let found b = if b then MEMCACHED_SUCCESS else MEMCACHED_NOTFOUND

  let memcached_delete st key = found (Typed.delete (rt st "delete") key)

  let counter_result = function
    | Mc_core.Store.Counter v -> Ok v
    | Mc_core.Store.Counter_not_found -> Error MEMCACHED_NOTFOUND
    | Mc_core.Store.Non_numeric ->
      Error (MEMCACHED_CLIENT_ERROR "cannot increment or decrement non-numeric value")

  let memcached_increment st key delta =
    counter_result (Typed.incr (rt st "incr") key delta)

  let memcached_decrement st key delta =
    counter_result (Typed.decr (rt st "decr") key delta)

  let memcached_touch st key exptime =
    found (Typed.touch (rt st "touch") key exptime)

  (* ---- Admin --------------------------------------------------------------- *)

  let memcached_stat st = Typed.stats (rt st "stats")

  let memcached_flush st =
    ignore (rt st "flush_all" Mc_protocol.Types.Flush_all);
    MEMCACHED_SUCCESS

  (* ---- Async (callback) interface -------------------------------------------- *)

  (* Multi-get, the batch plane's client face: one protection crossing
     (plib) or one kernel round trip (socket) for the whole key list.
     Returns hits in key-list order. *)
  let memcached_mget st keys : (string * Mc_core.Store.get_result) list =
    match st.backend with
    | Plib_backend p -> Plib.mget p keys
    | Socket_backend s -> Sock.mget s keys

  (* With sockets, mget hides latency by batching; with the protected
     library one trampoline crossing carries the whole run and the
     callbacks fire right after it returns. Either way the
     application-visible contract holds. *)
  let memcached_mget_execute st keys
      ~(callback : key:string -> value:string -> flags:int -> unit) =
    List.iter
      (fun (key, g) ->
        callback ~key ~value:g.Mc_core.Store.value ~flags:g.Mc_core.Store.flags)
      (memcached_mget st keys);
    MEMCACHED_SUCCESS

  (* ---- The slim Direct API (no memcached_st) ----------------------------------- *)

  module Direct = struct
    let default : Plib.t option ref = ref None

    exception Not_initialized

    let memcached_init p = default := Some p

    let the () = match !default with Some p -> p | None -> raise Not_initialized

    let get key = Plib.get (the ()) key

    let mget keys = Plib.mget (the ()) keys

    let batch ?on_op ops = Plib.batch ?on_op (the ()) ops

    let set ?flags ?exptime key data = Plib.set (the ()) ?flags ?exptime key data

    let add ?flags ?exptime key data = Plib.add (the ()) ?flags ?exptime key data

    let replace ?flags ?exptime key data =
      Plib.replace (the ()) ?flags ?exptime key data

    let append key extra = Plib.append (the ()) key extra

    let prepend key extra = Plib.prepend (the ()) key extra

    let cas ?flags ?exptime ~cas:c key data =
      Plib.cas (the ()) ?flags ?exptime ~cas:c key data

    let delete key = Plib.delete (the ()) key

    let incr key delta = Plib.incr (the ()) key delta

    let decr key delta = Plib.decr (the ()) key delta

    let touch key exptime = Plib.touch (the ()) key exptime

    let stats () = Plib.stats (the ())

    let flush_all () = Plib.flush_all (the ())
  end
end
