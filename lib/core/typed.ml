(** The typed face shared by both client backends: each op is one
    protocol command handed to an exchange, and its reply is decoded
    into the typed result here, once. The socket client's exchange is a
    round trip over the wire; the protected library's is one crossing
    into the same executor a server drain runs. *)

module P = Mc_protocol.Types
module St = Mc_core.Store

type rt = P.command -> P.response
(** One command in, its reply out. *)

let store_result : P.response -> St.store_result = function
  | P.Stored -> St.Stored
  | P.Not_stored -> St.Not_stored
  | P.Exists -> St.Exists
  | P.Not_found -> St.Not_found
  | P.Server_error _ -> St.No_memory
  | _ -> St.Not_stored

let get_result (v : P.value) : St.get_result =
  { St.value = v.P.v_data; flags = v.P.v_flags; cas = v.P.v_cas }

(* The hits of a run of retrieval replies, in reply order. *)
let hits (resps : P.response list) : (string * St.get_result) list =
  List.concat_map
    (function
      | P.Values { vals; _ } -> List.map (fun v -> (v.P.v_key, get_result v)) vals
      | _ -> [])
    resps

(* gets, not get: the result carries the CAS unique, and over ASCII
   only a gets reply does *)
let get (rt : rt) key =
  match rt (P.Gets [ key ]) with
  | P.Values { vals = v :: _; _ } -> Some (get_result v)
  | _ -> None

let storage mk (rt : rt) ?(flags = 0) ?(exptime = 0) key data =
  store_result (rt (mk { P.key; flags; exptime; data; noreply = false }))

let set rt = storage (fun p -> P.Set p) rt

let add rt = storage (fun p -> P.Add p) rt

let replace rt = storage (fun p -> P.Replace p) rt

let append rt key extra = storage (fun p -> P.Append p) rt key extra

let prepend rt key extra = storage (fun p -> P.Prepend p) rt key extra

let cas rt ?flags ?exptime ~cas key data =
  storage (fun p -> P.Cas (p, cas)) rt ?flags ?exptime key data

let delete (rt : rt) key = rt (P.Delete (key, false)) = P.Deleted

let counter (rt : rt) cmd : St.counter_result =
  match rt cmd with
  | P.Number v -> St.Counter v
  | P.Client_error _ -> St.Non_numeric
  | _ -> St.Counter_not_found

let incr rt key delta = counter rt (P.Incr (key, delta, false))

let decr rt key delta = counter rt (P.Decr (key, delta, false))

let touch (rt : rt) key exptime = rt (P.Touch (key, exptime, false)) = P.Touched

let stats ?arg (rt : rt) =
  match rt (P.Stats arg) with P.Stats_reply kvs -> kvs | _ -> []
