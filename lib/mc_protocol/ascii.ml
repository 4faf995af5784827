(** The memcached ASCII ("text") protocol.

    Requests are CRLF-terminated command lines; storage commands carry
    a data block of declared length, also CRLF-terminated. Responses
    are lines, with VALUE blocks for retrievals. Each codec here works
    on a complete framed message (the transport preserves message
    boundaries, as one socket write per request does in practice). *)

open Types

let crlf = "\r\n"

(* ---- Request encoding (client side) --------------------------------- *)

let encode_store verb (p : store_params) ?cas () =
  let b = Buffer.create (String.length p.data + 64) in
  Buffer.add_string b verb;
  Buffer.add_char b ' ';
  Buffer.add_string b p.key;
  Buffer.add_string b
    (Printf.sprintf " %d %d %d" p.flags p.exptime (String.length p.data));
  (match cas with
   | Some c -> Buffer.add_string b (Printf.sprintf " %Lu" c)
   | None -> ());
  if p.noreply then Buffer.add_string b " noreply";
  Buffer.add_string b crlf;
  Buffer.add_string b p.data;
  Buffer.add_string b crlf;
  Buffer.contents b

let encode_command (c : command) : string =
  match c with
  | Get keys -> "get " ^ String.concat " " keys ^ crlf
  | Gets keys -> "gets " ^ String.concat " " keys ^ crlf
  | Set p -> encode_store "set" p ()
  | Add p -> encode_store "add" p ()
  | Replace p -> encode_store "replace" p ()
  | Append p -> encode_store "append" p ()
  | Prepend p -> encode_store "prepend" p ()
  | Cas (p, cas) -> encode_store "cas" p ~cas ()
  | Delete (k, noreply) ->
    "delete " ^ k ^ (if noreply then " noreply" else "") ^ crlf
  | Incr (k, d, noreply) ->
    Printf.sprintf "incr %s %Lu%s%s" k d (if noreply then " noreply" else "")
      crlf
  | Decr (k, d, noreply) ->
    Printf.sprintf "decr %s %Lu%s%s" k d (if noreply then " noreply" else "")
      crlf
  | Touch (k, exp, noreply) ->
    Printf.sprintf "touch %s %d%s%s" k exp (if noreply then " noreply" else "")
      crlf
  | Stats None -> "stats" ^ crlf
  | Stats (Some arg) -> "stats " ^ arg ^ crlf
  | Version -> "version" ^ crlf
  | Flush_all -> "flush_all" ^ crlf
  | Quit -> "quit" ^ crlf
  | Getx _ | Noop ->
    invalid_arg "Ascii.encode_command: binary-only command"
  | Invalid _ -> invalid_arg "Ascii.encode_command: Invalid is not a request"

(* ---- Request parsing (server side) ------------------------------------ *)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let find_crlf s from =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' then Some i
    else go (i + 1)
  in
  go from

let int_of_token name tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> parse_error "bad %s: %S" name tok

let u64_of_token name tok =
  match parse_u64 tok with
  | Some v -> v
  | None -> parse_error "bad %s: %S" name tok

(* The declared data-block length of a storage command, hardened:
   strict non-negative decimal (no sign, no hex — [int_of_string_opt]
   accepts "0x10" and "-2") and bounded by [max_data_bytes]. A
   negative length used to pass the short-read guard ([after_line +
   len + 2] shrinks!) and crash in [String.sub]; an oversized one pins
   the connection buffer waiting for data that never comes. Neither
   request can be framed (the declared length is the only framing
   information and it is a lie), so both are connection-fatal
   [Parse_error]s, as in real memcached. *)
let data_len_of_token tok =
  if not (Defenses.on Parser_hardening) then int_of_token "bytes" tok
  else begin
    let n = String.length tok in
    let all_digits =
      let rec go i = i >= n || (tok.[i] >= '0' && tok.[i] <= '9' && go (i + 1)) in
      go 0
    in
    if n = 0 || n > 8 || not all_digits then
      parse_error "bad data chunk length %S" tok;
    let v = int_of_string tok in
    if v > max_data_bytes then parse_error "object too large for cache";
    v
  end

(* Key validation (memcached semantics): over-long keys and keys with
   control characters answer CLIENT_ERROR, uniformly across the get,
   gets, storage, delete, counter and touch arms. The command still
   frames — including any data block — so the reply maps to exactly
   this request and a pipelined batch stays in sync; [Invalid] carries
   the error to the executor. *)
let keys_ok ks = List.for_all validate_key ks

(* Parse a full request out of [s]; returns the command and the number
   of bytes consumed (so a pipelined buffer can be drained). *)
let parse_command (s : string) : command * int =
  match find_crlf s 0 with
  | None ->
    (* an over-long line without CRLF is garbage, not a short read
       (memcached bounds its command-line buffer similarly) *)
    if String.length s > 8192 then parse_error "request line too long"
    else raise Need_more_data
  | Some eol ->
    let line = String.sub s 0 eol in
    let after_line = eol + 2 in
    let store verb rest =
      match rest with
      | key :: flags :: exptime :: len :: tail ->
        let flags = int_of_token "flags" flags in
        let exptime = int_of_token "exptime" exptime in
        let len = data_len_of_token len in
        (* A bad CAS unique must not abort here: the data block is
           still on the wire, so the request frames in full and the
           error answers exactly this command ([Invalid] discipline) —
           aborting would desync every pipelined request behind it. *)
        let cas, tail =
          if verb = "cas" then
            match tail with
            | c :: t -> (Some (parse_u64 c), t)
            | [] -> parse_error "cas: missing unique"
          else (None, tail)
        in
        let noreply =
          match tail with
          | [] -> false
          | [ "noreply" ] -> true
          | t :: _ -> parse_error "%s: trailing %S" verb t
        in
        if String.length s < after_line + len + 2 then raise Need_more_data;
        if String.sub s (after_line + len) 2 <> crlf then
          parse_error "%s: data block not CRLF-terminated" verb;
        let data = String.sub s after_line len in
        let consumed = after_line + len + 2 in
        if not (validate_key key) then (Invalid bad_key_error, consumed)
        else
          let p = { key; flags; exptime; data; noreply } in
          let cmd =
            match verb, cas with
            | "set", None -> Set p
            | "add", None -> Add p
            | "replace", None -> Replace p
            | "append", None -> Append p
            | "prepend", None -> Prepend p
            | "cas", Some (Some c) -> Cas (p, c)
            | "cas", Some None ->
              (* non-numeric or > 2^64-1: framed, answered, not wrapped *)
              Invalid "bad command line format"
            | _ -> parse_error "unknown storage verb %S" verb
          in
          (cmd, consumed)
      | _ -> parse_error "%s: bad argument count" verb
    in
    (match split_ws line with
     | [] -> parse_error "empty command"
     | verb :: rest ->
       (match verb with
        | "get" ->
          if rest = [] then parse_error "get: no keys";
          if keys_ok rest then (Get rest, after_line)
          else (Invalid bad_key_error, after_line)
        | "gets" ->
          if rest = [] then parse_error "gets: no keys";
          if keys_ok rest then (Gets rest, after_line)
          else (Invalid bad_key_error, after_line)
        | "set" | "add" | "replace" | "append" | "prepend" | "cas" ->
          store verb rest
        | "delete" ->
          (match rest with
           | [ k ] | [ k; "noreply" ] ->
             if not (validate_key k) then (Invalid bad_key_error, after_line)
             else (Delete (k, rest <> [ k ]), after_line)
           | _ -> parse_error "delete: bad arguments")
        | "incr" | "decr" ->
          (match rest with
           | k :: d :: tail ->
             let noreply = tail = [ "noreply" ] in
             if not (validate_key k) then (Invalid bad_key_error, after_line)
             else
               (* memcached's wording; a 20-digit operand past 2^64-1
                  lands here too instead of wrapping modulo 2^64 *)
               (match parse_u64 d with
                | None ->
                  (Invalid "invalid numeric delta argument", after_line)
                | Some d ->
                  if verb = "incr" then (Incr (k, d, noreply), after_line)
                  else (Decr (k, d, noreply), after_line))
           | _ -> parse_error "%s: bad arguments" verb)
        | "touch" ->
          (match rest with
           | k :: e :: tail ->
             let noreply = tail = [ "noreply" ] in
             let e = int_of_token "exptime" e in
             if not (validate_key k) then (Invalid bad_key_error, after_line)
             else (Touch (k, e, noreply), after_line)
           | _ -> parse_error "touch: bad arguments")
        | "stats" ->
          (* the argument selects a sub-report; dropping it would turn
             e.g. `stats reset` into a read-only `stats` *)
          (match rest with
           | [] -> (Stats None, after_line)
           | [ arg ] -> (Stats (Some arg), after_line)
           | _ -> parse_error "stats: too many arguments")
        | "version" -> (Version, after_line)
        | "flush_all" -> (Flush_all, after_line)
        | "quit" -> (Quit, after_line)
        | v -> parse_error "unknown command %S" v))

(* ---- Batch (pipelined) parsing --------------------------------------- *)

(* Drain every complete request out of [s] in one pass — the op batch a
   connection's pending bytes amount to. Returns the parsed prefix and
   how many bytes it spans; the unconsumed tail is a partial request
   (or the start of a malformed one). Raises only if the very first
   request is malformed or incomplete — a mid-batch error is left in
   the buffer so the already-parsed prefix executes first and the next
   drain reports the error in sequence. *)
let parse_batch ?(max_ops = max_int) (s : string) : command list * int =
  let n = String.length s in
  let rec go at acc ops =
    if at >= n || ops >= max_ops then (List.rev acc, at)
    else
      match
        parse_command (if at = 0 then s else String.sub s at (n - at))
      with
      | cmd, consumed -> go (at + consumed) (cmd :: acc) (ops + 1)
      | exception Need_more_data -> (List.rev acc, at)
      | exception Parse_error _ when acc <> [] -> (List.rev acc, at)
  in
  go 0 [] 0

(* ---- Response encoding (server side) ----------------------------------- *)

let encode_response (r : response) : string =
  match r with
  | Values { with_cas; vals } ->
    let b = Buffer.create 128 in
    List.iter
      (fun v ->
        (* the CAS unique is a gets-only token; a plain get must not
           leak it *)
        (if with_cas then
           Buffer.add_string b
             (Printf.sprintf "VALUE %s %d %d %Lu%s" v.v_key v.v_flags
                (String.length v.v_data) v.v_cas crlf)
         else
           Buffer.add_string b
             (Printf.sprintf "VALUE %s %d %d%s" v.v_key v.v_flags
                (String.length v.v_data) crlf));
        Buffer.add_string b v.v_data;
        Buffer.add_string b crlf)
      vals;
    Buffer.add_string b ("END" ^ crlf);
    Buffer.contents b
  | Stored -> "STORED" ^ crlf
  | Not_stored -> "NOT_STORED" ^ crlf
  | Exists -> "EXISTS" ^ crlf
  | Not_found -> "NOT_FOUND" ^ crlf
  | Deleted -> "DELETED" ^ crlf
  | Touched -> "TOUCHED" ^ crlf
  | Number n -> Printf.sprintf "%Lu%s" n crlf
  | Stats_reply kvs ->
    let b = Buffer.create 128 in
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "STAT %s %s%s" k v crlf))
      kvs;
    Buffer.add_string b ("END" ^ crlf);
    Buffer.contents b
  | Reset -> "RESET" ^ crlf
  | Version_reply v -> "VERSION " ^ v ^ crlf
  | Ok -> "OK" ^ crlf
  | Error -> "ERROR" ^ crlf
  | Client_error m -> "CLIENT_ERROR " ^ m ^ crlf
  | Server_error m -> "SERVER_ERROR " ^ m ^ crlf

(* Encode a batch's replies into one output buffer — one write() per
   drained batch instead of one per op. [suppress_reply] filters
   noreply storage ops. *)
let encode_batch (pairs : (command * response) list) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (cmd, resp) ->
      if not (suppress_reply cmd resp) then
        Buffer.add_string b (encode_response resp))
    pairs;
  Buffer.contents b

(* ---- Response parsing (client side) -------------------------------------- *)

let parse_response (s : string) : response =
  let rec lines from acc =
    match find_crlf s from with
    | None -> List.rev acc
    | Some eol -> collect from eol acc
  and collect from eol acc =
    let line = String.sub s from (eol - from) in
    if String.length line >= 6 && String.sub line 0 6 = "VALUE " then begin
      match split_ws line with
      | _ :: key :: flags :: len :: rest ->
        let len = int_of_token "bytes" len in
        let cas, has_cas =
          match rest with
          | [ c ] -> (u64_of_token "cas" c, true)
          | _ -> (0L, false)
        in
        let data_start = eol + 2 in
        if String.length s < data_start + len + 2 then
          parse_error "VALUE data truncated";
        let data = String.sub s data_start len in
        lines (data_start + len + 2)
          (`Value
             ( has_cas,
               { v_key = key; v_flags = int_of_token "flags" flags;
                 v_cas = cas; v_data = data } )
           :: acc)
      | _ -> parse_error "malformed VALUE line"
    end
    else lines (eol + 2) (`Line line :: acc)
  in
  match lines 0 [] with
  | [ `Line "STORED" ] -> Stored
  | [ `Line "NOT_STORED" ] -> Not_stored
  | [ `Line "EXISTS" ] -> Exists
  | [ `Line "NOT_FOUND" ] -> Not_found
  | [ `Line "DELETED" ] -> Deleted
  | [ `Line "TOUCHED" ] -> Touched
  | [ `Line "RESET" ] -> Reset
  | [ `Line "OK" ] -> Ok
  | [ `Line "ERROR" ] -> Error
  | items ->
    (match items with
     | [ `Line l ] when String.length l >= 8 && String.sub l 0 8 = "VERSION " ->
       Version_reply (String.sub l 8 (String.length l - 8))
     | [ `Line l ]
       when String.length l >= 13 && String.sub l 0 13 = "CLIENT_ERROR " ->
       Client_error (String.sub l 13 (String.length l - 13))
     | [ `Line l ]
       when String.length l >= 13 && String.sub l 0 13 = "SERVER_ERROR " ->
       Server_error (String.sub l 13 (String.length l - 13))
     | [ `Line l ] when parse_u64 l <> None -> Number (Option.get (parse_u64 l))
     | _ ->
       (* VALUE* END, or STAT* END *)
       let rec gather items vals with_cas stats saw_end =
         match items with
         | [] ->
           if not saw_end then parse_error "missing END";
           if stats <> [] then Stats_reply (List.rev stats)
           else Values { with_cas; vals = List.rev vals }
         | `Value (has_cas, v) :: rest ->
           gather rest (v :: vals) (with_cas || has_cas) stats saw_end
         | `Line "END" :: rest -> gather rest vals with_cas stats true
         | `Line l :: rest
           when String.length l >= 5 && String.sub l 0 5 = "STAT " ->
           let body = String.sub l 5 (String.length l - 5) in
           (match String.index_opt body ' ' with
            | Some i ->
              gather rest vals with_cas
                ((String.sub body 0 i,
                  String.sub body (i + 1) (String.length body - i - 1))
                 :: stats)
                saw_end
            | None ->
              gather rest vals with_cas ((body, "") :: stats) saw_end)
         | `Line l :: _ -> parse_error "unexpected line %S" l
       in
       gather items [] false [] false)

(* One response frame out of a pipelined reply buffer: the response
   and the bytes it spans. A frame is a single line unless the first
   line opens a VALUE/STAT block, which runs through its END line. *)
let parse_response_at (s : string) ~(at : int) : response * int =
  let n = String.length s in
  let line_end i =
    match find_crlf s i with
    | None -> raise Need_more_data
    | Some eol -> eol
  in
  let starts p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let eol = line_end at in
  let first = String.sub s at (eol - at) in
  let fin stop = (parse_response (String.sub s at (stop - at)), stop - at) in
  if starts "VALUE " first || starts "STAT " first || first = "END" then
    let rec scan i =
      let eol = line_end i in
      let line = String.sub s i (eol - i) in
      if line = "END" then eol + 2
      else if starts "VALUE " line then
        match split_ws line with
        | _ :: _ :: _ :: len :: _ ->
          let len = int_of_token "bytes" len in
          let next = eol + 2 + len + 2 in
          if next > n then raise Need_more_data;
          scan next
        | _ -> parse_error "malformed VALUE line"
      else scan (eol + 2)
    in
    fin (scan at)
  else fin (eol + 2)
