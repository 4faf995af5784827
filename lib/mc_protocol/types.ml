(** Wire-level request/response model shared by the ASCII and binary
    codecs. The baseline (socket) memcached speaks these; the protected
    library needs none of it — deleting this layer is most of the
    paper's 24% code reduction. *)

type store_params = {
  key : string;
  flags : int;
  exptime : int;
  data : string;
  noreply : bool;
}

type command =
  | Get of string list
  | Gets of string list  (** get returning CAS uniques *)
  | Getx of { g_key : string; g_quiet : bool; g_withkey : bool }
  (** binary-only retrieval shapes: GetQ/GetK/GetKQ. [g_quiet]
      suppresses the miss reply (a quiet-get run is the binary
      protocol's pipelined mget); [g_withkey] echoes the key in the
      response frame so the client can match replies to a quiet run. *)
  | Set of store_params
  | Add of store_params
  | Replace of store_params
  | Append of store_params
  | Prepend of store_params
  | Cas of store_params * int64
  | Delete of string * bool (* noreply *)
  | Incr of string * int64 * bool
  | Decr of string * int64 * bool
  | Touch of string * int * bool
  | Stats of string option
  (** [stats] or [stats <arg>] — the argument selects a sub-report
      ([items], [slabs], [reset], ...); the binary codec carries it in
      the request's key field, as real memcached does. *)
  | Version
  | Flush_all
  | Quit
  | Noop
  (** binary-only: the frame that terminates a quiet-op run — it always
      elicits a reply, flushing any pipelined quiet gets before it *)
  | Invalid of string
  (** a request that framed correctly but failed validation (e.g. an
      over-long key). Unlike {!Parse_error}, the parser consumed the
      whole request — including a storage command's data block — so a
      pipelined batch stays in sync and the server answers
      [CLIENT_ERROR] for exactly this one command. *)

type value = { v_key : string; v_flags : int; v_cas : int64; v_data : string }

type response =
  | Values of { with_cas : bool; vals : value list }
  (** terminated by END; empty list = miss. [with_cas] distinguishes a
      [gets] reply (VALUE lines carry the CAS unique) from a plain
      [get] reply (they must not) — the binary protocol always carries
      CAS in its response header, so the flag only shapes ASCII. *)
  | Stored
  | Not_stored
  | Exists
  | Not_found
  | Deleted
  | Touched
  | Number of int64
  | Stats_reply of (string * string) list
  | Reset
  (** reply to [stats reset]: ASCII "RESET", binary an empty Stat
      terminator frame *)
  | Version_reply of string
  | Ok
  | Error
  | Client_error of string
  | Server_error of string

exception Parse_error of string

exception Need_more_data
(** The buffer holds a prefix of a valid request: not an error, the
    socket just has not delivered the rest yet. Stream-mode servers
    keep accumulating; framed-mode callers treat it as malformed. *)

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Strict unsigned-64 parse for protocol operands (CAS uniques, counter
   deltas): decimal digits only, and anything above 2^64-1 is rejected
   rather than wrapped. [Int64.of_string "0u..."] would accept
   underscores, and a wrap here would turn a garbage delta into a
   silently-applied huge one. *)
let max_u64_div10 = 1844674407370955161L (* (2^64-1) / 10 *)

let parse_u64 (s : string) : int64 option =
  let n = String.length s in
  if n = 0 then None
  else
    let rec go i acc =
      if i >= n then Some acc
      else
        match s.[i] with
        | '0' .. '9' as c ->
          let d = Char.code c - Char.code '0' in
          if
            Int64.unsigned_compare acc max_u64_div10 > 0
            || (Int64.equal acc max_u64_div10 && d > 5)
          then None
          else go (i + 1) (Int64.add (Int64.mul acc 10L) (Int64.of_int d))
        | _ -> None
    in
    go 0 0L

let max_key_length = 250

(* Largest value a storage command may carry (memcached's default
   item-size limit). The declared-length field of an ASCII storage
   command is attacker-controlled; without a bound, a huge length pins
   the connection buffer forever (the server waits for data that never
   comes), and a {e negative} length drove [String.sub] to raise
   [Invalid_argument] out of the parser — an uncaught crash, found by
   the red-team fuzzer (see test/corpus/). *)
let max_data_bytes = 1 lsl 20

let validate_key k =
  let n = String.length k in
  if n = 0 || n > max_key_length then false
  else
    let rec ok i =
      i >= n
      ||
      let c = k.[i] in
      c > ' ' && c <> '\127' && ok (i + 1)
    in
    ok 0

(* The binary protocol frames the key with an explicit length, so any
   byte is unambiguous — only the length bound applies (real memcached
   accepts spaces and control bytes in binary keys). *)
let validate_key_binary k =
  let n = String.length k in
  n > 0 && n <= max_key_length

(* The one message every invalid-key path must produce, whichever codec
   and whichever command arm hit it. *)
let bad_key_error = "invalid key"

(* Does this command ask the server to suppress its reply? *)
let is_noreply = function
  | Set p | Add p | Replace p | Append p | Prepend p | Cas (p, _) -> p.noreply
  | Delete (_, n) | Incr (_, _, n) | Decr (_, _, n) | Touch (_, _, n) -> n
  | Getx { g_quiet; _ } -> g_quiet
  | Get _ | Gets _ | Stats _ | Version | Flush_all | Quit | Noop | Invalid _ ->
    false

(* Reply suppression is per (command, response): a quiet get answers on
   a hit but swallows the miss; noreply storage swallows everything;
   validation failures always answer, quiet or not (binary semantics —
   errors on quiet ops are reported). *)
let suppress_reply cmd (resp : response) =
  match cmd, resp with
  | _, (Client_error _ | Server_error _ | Error) -> false
  | Getx { g_quiet = true; _ }, Values { vals = []; _ } -> true
  | Getx _, _ -> false
  | cmd, _ -> is_noreply cmd

let command_name = function
  | Get _ -> "get"
  | Gets _ -> "gets"
  | Getx _ -> "get"
  | Set _ -> "set"
  | Add _ -> "add"
  | Replace _ -> "replace"
  | Append _ -> "append"
  | Prepend _ -> "prepend"
  | Cas _ -> "cas"
  | Delete _ -> "delete"
  | Incr _ -> "incr"
  | Decr _ -> "decr"
  | Touch _ -> "touch"
  | Stats _ -> "stats"
  | Version -> "version"
  | Flush_all -> "flush_all"
  | Quit -> "quit"
  | Noop -> "noop"
  | Invalid _ -> "invalid"
