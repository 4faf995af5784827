(** The memcached binary protocol: 24-byte big-endian header, then
    extras | key | value. One request maps to one frame, except [Stats],
    whose response is a frame sequence terminated by an empty STAT.

    Multi-key [Get] is an ASCII-protocol feature; this codec accepts
    single-key retrievals only. Real binary clients batch by pipelining
    a run of quiet gets (GetQ/GetKQ — miss replies suppressed)
    terminated by a Noop or a plain Get/GetK, which this codec models
    with {!Types.Getx} and {!Types.Noop}; {!parse_batch} drains such a
    run into an op batch. *)

open Types

let header_len = 24

let magic_req = 0x80

let magic_res = 0x81

module Op = struct
  let get = 0x00
  let getq = 0x09
  let getk = 0x0c
  let getkq = 0x0d
  let noop = 0x0a
  let set = 0x01
  let add = 0x02
  let replace = 0x03
  let delete = 0x04
  let increment = 0x05
  let decrement = 0x06
  let quit = 0x07
  let flush = 0x08
  let version = 0x0b
  let append = 0x0e
  let prepend = 0x0f
  let stat = 0x10
  let touch = 0x1c

  (* Quiet variants: the binary protocol's rendering of [noreply] — the
     server answers only on error. Encoding a noreply command picks the
     quiet opcode, and the parser maps it back, so noreply survives a
     binary round trip. [Touch] has no quiet opcode (real memcached
     reuses GAT for that); a noreply touch is normalised to a plain
     one. *)
  let setq = 0x11
  let addq = 0x12
  let replaceq = 0x13
  let deleteq = 0x14
  let incrementq = 0x15
  let decrementq = 0x16
  let appendq = 0x19
  let prependq = 0x1a
end

module Status = struct
  let ok = 0x00
  let key_not_found = 0x01
  let key_exists = 0x02
  let not_stored = 0x05
  let non_numeric = 0x06
  let unknown_command = 0x81
end

let put_u16 b v =
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  put_u16 b ((v lsr 16) land 0xffff);
  put_u16 b (v land 0xffff)

let put_u64 b (v : int64) =
  put_u32 b (Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff);
  put_u32 b (Int64.to_int v land 0xffffffff)

let get_u8 s i = Char.code s.[i]

let get_u16 s i = (get_u8 s i lsl 8) lor get_u8 s (i + 1)

let get_u32 s i = (get_u16 s i lsl 16) lor get_u16 s (i + 2)

let get_u64 s i =
  Int64.logor
    (Int64.shift_left (Int64.of_int (get_u32 s i)) 32)
    (Int64.of_int (get_u32 s (i + 4)))

let frame ~magic ~opcode ~status ~cas ~extras ~key ~value =
  let b = Buffer.create (header_len + String.length extras
                         + String.length key + String.length value) in
  Buffer.add_char b (Char.chr magic);
  Buffer.add_char b (Char.chr opcode);
  put_u16 b (String.length key);
  Buffer.add_char b (Char.chr (String.length extras));
  Buffer.add_char b '\000' (* data type *);
  put_u16 b status;
  put_u32 b (String.length extras + String.length key + String.length value);
  put_u32 b 0 (* opaque *);
  put_u64 b cas;
  Buffer.add_string b extras;
  Buffer.add_string b key;
  Buffer.add_string b value;
  Buffer.contents b

let store_extras flags exptime =
  let b = Buffer.create 8 in
  put_u32 b flags;
  put_u32 b exptime;
  Buffer.contents b

let counter_extras delta =
  let b = Buffer.create 20 in
  put_u64 b delta;
  put_u64 b 0L (* initial *);
  put_u32 b 0xffffffff (* no auto-create *);
  Buffer.contents b

let encode_command (c : command) : string =
  let req = frame ~magic:magic_req ~status:0 in
  match c with
  | Get [ k ] | Gets [ k ] ->
    req ~opcode:Op.get ~cas:0L ~extras:"" ~key:k ~value:""
  | Get _ | Gets _ -> invalid_arg "Binary.encode_command: multi-key get"
  | Getx { g_key; g_quiet; g_withkey } ->
    let opcode =
      match g_quiet, g_withkey with
      | false, false -> Op.get
      | true, false -> Op.getq
      | false, true -> Op.getk
      | true, true -> Op.getkq
    in
    req ~opcode ~cas:0L ~extras:"" ~key:g_key ~value:""
  | Noop -> req ~opcode:Op.noop ~cas:0L ~extras:"" ~key:"" ~value:""
  | Invalid _ -> invalid_arg "Binary.encode_command: Invalid is not a request"
  | Set p ->
    req
      ~opcode:(if p.noreply then Op.setq else Op.set)
      ~cas:0L ~extras:(store_extras p.flags p.exptime) ~key:p.key ~value:p.data
  | Cas (p, cas) ->
    req
      ~opcode:(if p.noreply then Op.setq else Op.set)
      ~cas ~extras:(store_extras p.flags p.exptime) ~key:p.key ~value:p.data
  | Add p ->
    req
      ~opcode:(if p.noreply then Op.addq else Op.add)
      ~cas:0L ~extras:(store_extras p.flags p.exptime) ~key:p.key ~value:p.data
  | Replace p ->
    req
      ~opcode:(if p.noreply then Op.replaceq else Op.replace)
      ~cas:0L ~extras:(store_extras p.flags p.exptime) ~key:p.key ~value:p.data
  | Append p ->
    req
      ~opcode:(if p.noreply then Op.appendq else Op.append)
      ~cas:0L ~extras:"" ~key:p.key ~value:p.data
  | Prepend p ->
    req
      ~opcode:(if p.noreply then Op.prependq else Op.prepend)
      ~cas:0L ~extras:"" ~key:p.key ~value:p.data
  | Delete (k, noreply) ->
    req
      ~opcode:(if noreply then Op.deleteq else Op.delete)
      ~cas:0L ~extras:"" ~key:k ~value:""
  | Incr (k, d, noreply) ->
    req
      ~opcode:(if noreply then Op.incrementq else Op.increment)
      ~cas:0L ~extras:(counter_extras d) ~key:k ~value:""
  | Decr (k, d, noreply) ->
    req
      ~opcode:(if noreply then Op.decrementq else Op.decrement)
      ~cas:0L ~extras:(counter_extras d) ~key:k ~value:""
  | Touch (k, e, _) ->
    let b = Buffer.create 4 in
    put_u32 b e;
    req ~opcode:Op.touch ~cas:0L ~extras:(Buffer.contents b) ~key:k ~value:""
  | Stats arg ->
    (* the sub-report selector travels in the key field, as in real
       memcached's STAT requests *)
    req ~opcode:Op.stat ~cas:0L ~extras:""
      ~key:(Option.value arg ~default:"") ~value:""
  | Version -> req ~opcode:Op.version ~cas:0L ~extras:"" ~key:"" ~value:""
  | Flush_all -> req ~opcode:Op.flush ~cas:0L ~extras:"" ~key:"" ~value:""
  | Quit -> req ~opcode:Op.quit ~cas:0L ~extras:"" ~key:"" ~value:""

type raw = {
  r_magic : int;
  r_opcode : int;
  r_status : int;
  r_cas : int64;
  r_extras : string;
  r_key : string;
  r_value : string;
  r_consumed : int;
}

let parse_frame (s : string) ~(at : int) : raw =
  if String.length s - at < header_len then raise Need_more_data;
  let key_len = get_u16 s (at + 2) in
  let extras_len = get_u8 s (at + 4) in
  let body_len = get_u32 s (at + 8) in
  if body_len > 64 * 1024 * 1024 then parse_error "insane body length";
  if String.length s - at < header_len + body_len then raise Need_more_data;
  if body_len < extras_len + key_len then parse_error "inconsistent body length";
  let body_at = at + header_len in
  { r_magic = get_u8 s at;
    r_opcode = get_u8 s (at + 1);
    r_status = get_u16 s (at + 6);
    r_cas = get_u64 s (at + 16);
    r_extras = String.sub s body_at extras_len;
    r_key = String.sub s (body_at + extras_len) key_len;
    r_value =
      String.sub s (body_at + extras_len + key_len)
        (body_len - extras_len - key_len);
    r_consumed = header_len + body_len }

exception Bad_key

exception Too_large

let parse_command (s : string) : command * int =
  let r = parse_frame s ~at:0 in
  if r.r_magic <> magic_req then parse_error "bad request magic %#x" r.r_magic;
  (* The frame carries an explicit key length, so only the length bound
     applies (mirroring the ASCII codec's 250-byte cap); the frame is
     already consumed, so the error maps to exactly this request. *)
  let key () =
    if not (validate_key_binary r.r_key) then raise Bad_key;
    r.r_key
  in
  (* Unlike ASCII, the frame is fully delimited even when the value is
     over the item-size limit, so the request frames and the error
     answers exactly this command ([Invalid] discipline). *)
  let bound_value () =
    if Defenses.on Parser_hardening && String.length r.r_value > max_data_bytes
    then raise Too_large
  in
  let store ~noreply =
    if String.length r.r_extras <> 8 then parse_error "store: bad extras";
    bound_value ();
    { key = key (); flags = get_u32 r.r_extras 0;
      exptime = get_u32 r.r_extras 4; data = r.r_value; noreply }
  in
  let concat ~noreply =
    bound_value ();
    { key = key (); flags = 0; exptime = 0; data = r.r_value; noreply }
  in
  let counter ~noreply what =
    if String.length r.r_extras <> 20 then parse_error "%s: bad extras" what;
    (key (), get_u64 r.r_extras 0, noreply)
  in
  let cmd =
    match r.r_opcode with
    | o when o = Op.get -> Get [ key () ]
    | o when o = Op.getq ->
      Getx { g_key = key (); g_quiet = true; g_withkey = false }
    | o when o = Op.getk ->
      Getx { g_key = key (); g_quiet = false; g_withkey = true }
    | o when o = Op.getkq ->
      Getx { g_key = key (); g_quiet = true; g_withkey = true }
    | o when o = Op.noop -> Noop
    | o when o = Op.set || o = Op.setq ->
      let noreply = r.r_opcode = Op.setq in
      if r.r_cas = 0L then Set (store ~noreply)
      else Cas (store ~noreply, r.r_cas)
    | o when o = Op.add -> Add (store ~noreply:false)
    | o when o = Op.addq -> Add (store ~noreply:true)
    | o when o = Op.replace -> Replace (store ~noreply:false)
    | o when o = Op.replaceq -> Replace (store ~noreply:true)
    | o when o = Op.append -> Append (concat ~noreply:false)
    | o when o = Op.appendq -> Append (concat ~noreply:true)
    | o when o = Op.prepend -> Prepend (concat ~noreply:false)
    | o when o = Op.prependq -> Prepend (concat ~noreply:true)
    | o when o = Op.delete -> Delete (key (), false)
    | o when o = Op.deleteq -> Delete (key (), true)
    | o when o = Op.increment ->
      let k, d, n = counter ~noreply:false "incr" in
      Incr (k, d, n)
    | o when o = Op.incrementq ->
      let k, d, n = counter ~noreply:true "incr" in
      Incr (k, d, n)
    | o when o = Op.decrement ->
      let k, d, n = counter ~noreply:false "decr" in
      Decr (k, d, n)
    | o when o = Op.decrementq ->
      let k, d, n = counter ~noreply:true "decr" in
      Decr (k, d, n)
    | o when o = Op.touch ->
      if String.length r.r_extras <> 4 then parse_error "touch: bad extras";
      Touch (key (), get_u32 r.r_extras 0, false)
    | o when o = Op.stat ->
      Stats (if r.r_key = "" then None else Some r.r_key)
    | o when o = Op.version -> Version
    | o when o = Op.flush -> Flush_all
    | o when o = Op.quit -> Quit
    | o -> parse_error "unknown opcode %#x" o
  in
  (cmd, r.r_consumed)

let parse_command (s : string) : command * int =
  match parse_command s with
  | cmd, consumed -> (cmd, consumed)
  | exception Bad_key ->
    let r = parse_frame s ~at:0 in
    (Invalid bad_key_error, r.r_consumed)
  | exception Too_large ->
    let r = parse_frame s ~at:0 in
    (Invalid "object too large for cache", r.r_consumed)

(* Drain every complete frame out of [s]: the binary rendering of an op
   batch — typically a run of quiet ops terminated by a noop or a
   non-quiet get/getk, but any frame sequence drains. Same contract as
   {!Ascii.parse_batch}. *)
let parse_batch ?(max_ops = max_int) (s : string) : command list * int =
  let n = String.length s in
  let rec go at acc ops =
    if at >= n || ops >= max_ops then (List.rev acc, at)
    else
      match parse_command (if at = 0 then s else String.sub s at (n - at)) with
      | cmd, consumed -> go (at + consumed) (cmd :: acc) (ops + 1)
      | exception Need_more_data -> (List.rev acc, at)
      | exception Parse_error _ when acc <> [] -> (List.rev acc, at)
  in
  go 0 [] 0

(* Responses carry the request opcode so the decoder knows the shape. *)
let encode_response ~(for_op : int) (resp : response) : string =
  let res = frame ~magic:magic_res ~opcode:for_op in
  match resp with
  | Values { vals = []; _ } ->
    res ~status:Status.key_not_found ~cas:0L ~extras:"" ~key:"" ~value:""
  | Values { vals = v :: _; _ } ->
    (* the binary header always carries the CAS, for get and gets
       alike — [with_cas] only shapes the ASCII rendering *)
    let extras =
      let b = Buffer.create 4 in
      put_u32 b v.v_flags;
      Buffer.contents b
    in
    res ~status:Status.ok ~cas:v.v_cas ~extras ~key:"" ~value:v.v_data
  | Stored -> res ~status:Status.ok ~cas:0L ~extras:"" ~key:"" ~value:""
  | Not_stored -> res ~status:Status.not_stored ~cas:0L ~extras:"" ~key:"" ~value:""
  | Exists -> res ~status:Status.key_exists ~cas:0L ~extras:"" ~key:"" ~value:""
  | Not_found -> res ~status:Status.key_not_found ~cas:0L ~extras:"" ~key:"" ~value:""
  | Deleted | Touched | Ok | Reset ->
    (* [Reset] is the `stats reset` ack: a lone empty-key Stat frame,
       i.e. a terminator with nothing before it *)
    res ~status:Status.ok ~cas:0L ~extras:"" ~key:"" ~value:""
  | Number n ->
    let b = Buffer.create 8 in
    put_u64 b n;
    res ~status:Status.ok ~cas:0L ~extras:"" ~key:"" ~value:(Buffer.contents b)
  | Stats_reply kvs ->
    let b = Buffer.create 128 in
    List.iter
      (fun (k, v) ->
        Buffer.add_string b
          (res ~status:Status.ok ~cas:0L ~extras:"" ~key:k ~value:v))
      kvs;
    Buffer.add_string b (res ~status:Status.ok ~cas:0L ~extras:"" ~key:"" ~value:"");
    Buffer.contents b
  | Version_reply v -> res ~status:Status.ok ~cas:0L ~extras:"" ~key:"" ~value:v
  | Error | Client_error _ | Server_error _ ->
    res ~status:Status.unknown_command ~cas:0L ~extras:"" ~key:"" ~value:""

(* The response opcode echoes the request's, so a pipelining client can
   match replies (in particular, spot the noop that flushes a quiet
   run). [Invalid] lost its original opcode when validation rejected
   it; the error status is what matters there. *)
let opcode_of_command (c : command) : int =
  match c with
  | Get _ | Gets _ -> Op.get
  | Getx { g_quiet; g_withkey; _ } ->
    (match g_quiet, g_withkey with
     | false, false -> Op.get
     | true, false -> Op.getq
     | false, true -> Op.getk
     | true, true -> Op.getkq)
  | Set p | Cas (p, _) -> if p.noreply then Op.setq else Op.set
  | Add p -> if p.noreply then Op.addq else Op.add
  | Replace p -> if p.noreply then Op.replaceq else Op.replace
  | Append p -> if p.noreply then Op.appendq else Op.append
  | Prepend p -> if p.noreply then Op.prependq else Op.prepend
  | Delete (_, n) -> if n then Op.deleteq else Op.delete
  | Incr (_, _, n) -> if n then Op.incrementq else Op.increment
  | Decr (_, _, n) -> if n then Op.decrementq else Op.decrement
  | Touch _ -> Op.touch
  | Stats _ -> Op.stat
  | Version -> Op.version
  | Flush_all -> Op.flush
  | Quit -> Op.quit
  | Noop -> Op.noop
  | Invalid _ -> Op.noop

(* Command-aware reply encoding: picks the echo opcode and, for
   GetK/GetKQ, carries the key back in the frame so quiet-run replies
   are attributable. *)
let encode_reply ~(for_cmd : command) (resp : response) : string =
  let opcode = opcode_of_command for_cmd in
  match for_cmd, resp with
  | Getx { g_withkey = true; g_key; _ }, Values { vals; _ } ->
    let res = frame ~magic:magic_res ~opcode in
    (match vals with
     | [] ->
       res ~status:Status.key_not_found ~cas:0L ~extras:"" ~key:g_key ~value:""
     | v :: _ ->
       let extras =
         let b = Buffer.create 4 in
         put_u32 b v.v_flags;
         Buffer.contents b
       in
       res ~status:Status.ok ~cas:v.v_cas ~extras ~key:g_key ~value:v.v_data)
  | _ -> encode_response ~for_op:opcode resp

(* Encode a batch's replies into one output buffer; quiet misses and
   noreply acks are dropped, errors always answer. *)
let encode_batch (pairs : (command * response) list) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (cmd, resp) ->
      if not (suppress_reply cmd resp) then
        Buffer.add_string b (encode_reply ~for_cmd:cmd resp))
    pairs;
  Buffer.contents b

let parse_response ~(for_cmd : command) (s : string) : response =
  let r = parse_frame s ~at:0 in
  if r.r_magic <> magic_res then parse_error "bad response magic %#x" r.r_magic;
  match for_cmd with
  | Get [ k ] | Gets [ k ] ->
    if r.r_status = Status.key_not_found then
      Values { with_cas = true; vals = [] }
    else if r.r_status <> Status.ok then Server_error "get failed"
    else
      let flags = if String.length r.r_extras >= 4 then get_u32 r.r_extras 0 else 0 in
      Values
        { with_cas = true;
          vals =
            [ { v_key = k; v_flags = flags; v_cas = r.r_cas;
                v_data = r.r_value } ] }
  | Get _ | Gets _ -> invalid_arg "Binary.parse_response: multi-key get"
  | Getx { g_key; _ } ->
    if r.r_status = Status.key_not_found then
      Values { with_cas = true; vals = [] }
    else if r.r_status <> Status.ok then Server_error "get failed"
    else
      let flags =
        if String.length r.r_extras >= 4 then get_u32 r.r_extras 0 else 0
      in
      let key = if r.r_key <> "" then r.r_key else g_key in
      Values
        { with_cas = true;
          vals =
            [ { v_key = key; v_flags = flags; v_cas = r.r_cas;
                v_data = r.r_value } ] }
  | Set _ | Add _ | Replace _ | Append _ | Prepend _ ->
    if r.r_status = Status.ok then Stored
    else if r.r_status = Status.key_exists then Exists
    else if r.r_status = Status.key_not_found then Not_found
    else Not_stored
  | Cas _ ->
    if r.r_status = Status.ok then Stored
    else if r.r_status = Status.key_exists then Exists
    else if r.r_status = Status.key_not_found then Not_found
    else Not_stored
  | Delete _ ->
    if r.r_status = Status.ok then Deleted else Not_found
  | Incr _ | Decr _ ->
    if r.r_status = Status.ok then Number (get_u64 r.r_value 0)
    else if r.r_status = Status.non_numeric then
      Client_error "cannot increment or decrement non-numeric value"
    else Not_found
  | Touch _ -> if r.r_status = Status.ok then Touched else Not_found
  | Stats (Some "reset") ->
    if r.r_status = Status.ok then Reset else Error
  | Stats _ ->
    let rec go at acc =
      let r = parse_frame s ~at in
      if r.r_key = "" then Stats_reply (List.rev acc)
      else go (at + r.r_consumed) ((r.r_key, r.r_value) :: acc)
    in
    go 0 []
  | Version -> Version_reply r.r_value
  | Flush_all -> if r.r_status = Status.ok then Ok else Error
  | Quit -> Ok
  | Noop -> if r.r_status = Status.ok then Ok else Error
  | Invalid _ -> invalid_arg "Binary.parse_response: Invalid is not a request"

(* One response frame (or, for [Stats], frame sequence) out of a
   pipelined reply buffer: the response and the bytes it spans. *)
let parse_response_at ~(for_cmd : command) (s : string) ~(at : int) :
  response * int =
  match for_cmd with
  | Stats (Some "reset") ->
    let r = parse_frame s ~at in
    (parse_response ~for_cmd (String.sub s at r.r_consumed), r.r_consumed)
  | Stats _ ->
    let rec go i acc =
      let r = parse_frame s ~at:i in
      if r.r_key = "" then (Stats_reply (List.rev acc), i + r.r_consumed - at)
      else go (i + r.r_consumed) ((r.r_key, r.r_value) :: acc)
    in
    go at []
  | _ ->
    let r = parse_frame s ~at in
    (parse_response ~for_cmd (String.sub s at r.r_consumed), r.r_consumed)
