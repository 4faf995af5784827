(** Client side of the baseline: libmemcached's wire path — marshal a
    request, write it to the Unix-domain socket, block for the reply,
    parse it. One kernel round trip per operation; this is what the
    protected library replaces with a 40 ns trampoline. *)

module P = Mc_protocol.Types
module CM = Platform.Cost_model

module Make
    (S : Platform.Sync_intf.S)
    (T : module type of Transport.Sock.Make (S)) =
struct

  type protocol = Ascii | Binary

  type t = { conn : T.conn; protocol : protocol }

  let connect ?(protocol = Binary) ~name () =
    { conn = T.connect ~name; protocol }

  let encode_only t cmd =
    match t.protocol with
    | Ascii -> Mc_protocol.Ascii.encode_command cmd
    | Binary -> Mc_protocol.Binary.encode_command cmd

  let encode t cmd =
    S.advance CM.current.client_pack;
    encode_only t cmd

  let decode t cmd payload =
    S.advance CM.current.client_unpack;
    match t.protocol with
    | Ascii -> Mc_protocol.Ascii.parse_response payload
    | Binary -> Mc_protocol.Binary.parse_response ~for_cmd:cmd payload

  let roundtrip t cmd =
    (match cmd with
     | P.Incr _ | P.Decr _ ->
       (* libmemcached's incr/decr path is substantially slower than
          its get/set path (Figure 5 reports 54 us vs 13 us); charge
          the measured client-side overhead. *)
       S.advance CM.current.client_incr_extra
     | _ -> ());
    let req = encode t cmd in
    T.client_send t.conn req;
    let reply = T.client_recv t.conn in
    decode t cmd reply

  (* ---- Batch plane ---------------------------------------------------- *)

  (* Parse the reply that starts at [at] in the accumulation buffer,
     receiving more bytes whenever only a prefix has arrived. Only the
     unconsumed suffix is copied out for the parser. *)
  let rec parse_at t buf cmd at =
    let data = Buffer.sub buf at (Buffer.length buf - at) in
    match
      match t.protocol with
      | Ascii -> Mc_protocol.Ascii.parse_response_at data ~at:0
      | Binary -> Mc_protocol.Binary.parse_response_at ~for_cmd:cmd data ~at:0
    with
    | r -> r
    | exception P.Need_more_data ->
      Buffer.add_string buf (T.client_recv t.conn);
      parse_at t buf cmd at

  (* Pipelining: the whole command list marshalled into one buffer,
     one send, replies parsed back in order — one kernel round trip
     where the one-op path pays B of them. Commands whose replies the
     server suppresses (noreply storage, quiet gets) would desync the
     positional parse and are refused; quiet-get runs go through
     {!mget}. *)
  let pipeline t (cmds : P.command list) : P.response list =
    match cmds with
    | [] -> []
    | cmds ->
      S.advance CM.current.client_pack;
      let req = Buffer.create 256 in
      List.iter
        (fun c ->
          if P.is_noreply c then
            invalid_arg "pipeline: command with a suppressed reply";
          Buffer.add_string req (encode_only t c))
        cmds;
      T.client_send t.conn (Buffer.contents req);
      S.advance CM.current.client_unpack;
      let buf = Buffer.create 256 in
      Buffer.add_string buf (T.client_recv t.conn);
      let rec go at = function
        | [] -> []
        | cmd :: rest ->
          let resp, used = parse_at t buf cmd at in
          resp :: go (at + used) rest
      in
      go 0 cmds

  let mget t keys : (string * Mc_core.Store.get_result) list =
    match keys with
    | [] -> []
    | keys ->
      (match t.protocol with
       | Ascii -> Typed.hits [ roundtrip t (P.Gets keys) ]
       | Binary ->
         (* The binary protocol's pipelined multi-get: a run of GetKQ
            frames closed by a Noop. Misses are suppressed; each hit
            frame echoes its key, and the noop reply flushes and
            terminates the run — one round trip for the whole list. *)
         S.advance CM.current.client_pack;
         let req = Buffer.create 256 in
         List.iter
           (fun k ->
             Buffer.add_string req
               (encode_only t
                  (P.Getx { g_key = k; g_quiet = true; g_withkey = true })))
           keys;
         Buffer.add_string req (encode_only t P.Noop);
         T.client_send t.conn (Buffer.contents req);
         S.advance CM.current.client_unpack;
         let buf = Buffer.create 256 in
         Buffer.add_string buf (T.client_recv t.conn);
         let quiet_get =
           P.Getx { g_key = ""; g_quiet = true; g_withkey = true }
         in
         let rec collect at acc =
           (* A reply frame is either a hit for some quiet get (the key
              is echoed in the frame) or the terminating noop; the
              opcode byte tells which before committing to a parse. *)
           if Buffer.length buf < at + 2 then begin
             Buffer.add_string buf (T.client_recv t.conn);
             collect at acc
           end
           else if
             Char.code (Buffer.nth buf (at + 1)) = Mc_protocol.Binary.Op.noop
           then List.rev acc
           else
             let resp, used = parse_at t buf quiet_get at in
             collect (at + used) (resp :: acc)
         in
         Typed.hits (collect 0 []))

  (* ---- Open-loop plane -------------------------------------------------

     Split send/await for the open-loop YCSB driver: [submit] marshals
     and sends without waiting for the reply; [await] parses the next
     reply (in submission order) off the connection's accumulated byte
     stream. With many requests in flight the stream interleaves reply
     frames back to back — exactly what the completion ring delivers —
     and the positional parse walks them one [await] at a time. *)

  type stream = { cl : t; sbuf : Buffer.t }

  let stream t = { cl = t; sbuf = Buffer.create 256 }

  let submit st cmd =
    if P.is_noreply cmd then invalid_arg "submit: command with a suppressed reply";
    S.advance CM.current.client_pack;
    T.client_send st.cl.conn (encode_only st.cl cmd)

  let await st cmd =
    S.advance CM.current.client_unpack;
    let resp, used = parse_at st.cl st.sbuf cmd 0 in
    (* drop the parsed reply: the buffer holds only replies not yet
       awaited, so each parse copies just those *)
    let rest = Buffer.sub st.sbuf used (Buffer.length st.sbuf - used) in
    Buffer.clear st.sbuf;
    Buffer.add_string st.sbuf rest;
    resp

  (* The typed ops: each is one {!Typed} command over [roundtrip]. *)
  let get t = Typed.get (roundtrip t)

  let set t = Typed.set (roundtrip t)

  let add t = Typed.add (roundtrip t)

  let replace t = Typed.replace (roundtrip t)

  let append t = Typed.append (roundtrip t)

  let prepend t = Typed.prepend (roundtrip t)

  let cas t = Typed.cas (roundtrip t)

  let delete t = Typed.delete (roundtrip t)

  let incr t = Typed.incr (roundtrip t)

  let decr t = Typed.decr (roundtrip t)

  let touch t = Typed.touch (roundtrip t)

  let stats ?arg t = Typed.stats ?arg (roundtrip t)

  let stats_reset t =
    match roundtrip t (P.Stats (Some "reset")) with
    | P.Reset -> true
    | _ -> false

  let version t =
    match roundtrip t P.Version with P.Version_reply v -> Some v | _ -> None

  let flush_all t = ignore (roundtrip t P.Flush_all)

  let quit t =
    let req = encode t P.Quit in
    (try T.client_send t.conn req with T.Connection_closed -> ())
end
