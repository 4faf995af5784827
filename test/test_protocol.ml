(** Wire protocols: ASCII and binary codecs, including error paths and
    property-based roundtrips. *)

open Mc_protocol.Types
module Ascii = Mc_protocol.Ascii
module Binary = Mc_protocol.Binary

let sp ?(flags = 0) ?(exptime = 0) ?(noreply = false) key data =
  { key; flags; exptime; data; noreply }

let ascii_roundtrip cmd =
  let wire = Ascii.encode_command cmd in
  let parsed, consumed = Ascii.parse_command wire in
  Alcotest.(check int) "whole request consumed" (String.length wire) consumed;
  parsed

let test_ascii_get_forms () =
  (match ascii_roundtrip (Get [ "a"; "bb" ]) with
   | Get [ "a"; "bb" ] -> ()
   | _ -> Alcotest.fail "get multi");
  match ascii_roundtrip (Gets [ "k" ]) with
  | Gets [ "k" ] -> ()
  | _ -> Alcotest.fail "gets"

let test_ascii_storage_forms () =
  (match ascii_roundtrip (Set (sp ~flags:7 ~exptime:60 "k" "v\r\nwith crlf")) with
   | Set p ->
     Alcotest.(check string) "data intact" "v\r\nwith crlf" p.data;
     Alcotest.(check int) "flags" 7 p.flags;
     Alcotest.(check int) "exptime" 60 p.exptime
   | _ -> Alcotest.fail "set");
  (match ascii_roundtrip (Cas (sp "k" "v", 99L)) with
   | Cas (_, 99L) -> ()
   | _ -> Alcotest.fail "cas");
  (match ascii_roundtrip (Add (sp ~noreply:true "k" "v")) with
   | Add p -> Alcotest.(check bool) "noreply" true p.noreply
   | _ -> Alcotest.fail "add");
  match ascii_roundtrip (Append (sp "k" "")) with
  | Append p -> Alcotest.(check string) "empty data ok" "" p.data
  | _ -> Alcotest.fail "append"

let test_ascii_other_commands () =
  List.iter
    (fun cmd ->
      let got = ascii_roundtrip cmd in
      Alcotest.(check string) "same command" (command_name cmd)
        (command_name got))
    [ Delete ("k", false); Delete ("k", true); Incr ("k", 5L, false);
      Decr ("k", 3L, true); Touch ("k", 100, false); Stats None; Stats (Some "items"); Version;
      Flush_all; Quit ]

let test_ascii_parse_errors () =
  List.iter
    (fun wire ->
      match Ascii.parse_command wire with
      | _ -> Alcotest.fail ("should not parse: " ^ String.escaped wire)
      | exception Parse_error _ -> ())
    [ "bogus\r\n"; "get\r\n"; "set k\r\n"; "set k a b 3\r\nabc\r\n";
      "set k 0 0 2\r\nabXY" (* wrong terminator *);
      "incr k\r\n"; "set k 0 0 2 garbage\r\nab\r\n" ];
  (* Invalid keys are not parse errors: the request frames, the whole
     thing (data block included) is consumed so a pipelined batch
     stays in sync, and the command surfaces as [Invalid] — which the
     executor answers with a uniform CLIENT_ERROR. *)
  List.iter
    (fun wire ->
      match Ascii.parse_command wire with
      | Invalid m, used ->
        Alcotest.(check string) "uniform message" bad_key_error m;
        Alcotest.(check int) "whole request consumed" (String.length wire)
          used
      | _ -> Alcotest.fail ("should frame as Invalid: " ^ String.escaped wire))
    [ "get " ^ String.make 300 'k' ^ "\r\n" (* key too long *);
      "get bad\x01key\r\n" (* control byte *);
      "gets ok bad\x01key\r\n" (* one bad key poisons the multi-get *);
      "set " ^ String.make 251 'k' ^ " 0 0 2\r\nab\r\n";
      "delete bad\x7fkey\r\n"; "incr bad\x02key 1\r\n";
      "touch " ^ String.make 300 't' ^ " 60\r\n" ]

let test_ascii_short_reads_want_more () =
  (* prefixes of valid requests are not errors: a stream server keeps
     reading *)
  List.iter
    (fun wire ->
      match Ascii.parse_command wire with
      | _ -> Alcotest.fail ("should be incomplete: " ^ String.escaped wire)
      | exception Need_more_data -> ())
    [ ""; "ge"; "get k"; "set k 0 0 5\r\n"; "set k 0 0 5\r\nab" ];
  List.iter
    (fun wire ->
      match Binary.parse_command wire with
      | _ -> Alcotest.fail "should be incomplete"
      | exception Need_more_data -> ())
    [ ""; "\x80"; String.sub (Binary.encode_command (Get [ "k" ])) 0 20 ]

let test_ascii_pipelined_requests () =
  let wire = Ascii.encode_command (Get [ "a" ]) ^ Ascii.encode_command Quit in
  let cmd1, used = Ascii.parse_command wire in
  let rest = String.sub wire used (String.length wire - used) in
  let cmd2, _ = Ascii.parse_command rest in
  Alcotest.(check string) "first" "get" (command_name cmd1);
  Alcotest.(check string) "second" "quit" (command_name cmd2)

let test_ascii_responses () =
  let values =
    Values
      { with_cas = true;
        vals =
          [ { v_key = "k1"; v_flags = 3; v_cas = 42L; v_data = "da\r\nta" };
            { v_key = "k2"; v_flags = 0; v_cas = 7L; v_data = "" } ] }
  in
  (match Ascii.parse_response (Ascii.encode_response values) with
   | Values { vals = [ v1; v2 ]; with_cas } ->
     Alcotest.(check string) "payload with crlf survives" "da\r\nta" v1.v_data;
     Alcotest.(check string) "second key" "k2" v2.v_key;
     Alcotest.(check int64) "cas" 42L v1.v_cas;
     Alcotest.(check bool) "gets form detected" true with_cas
   | _ -> Alcotest.fail "values");
  List.iter
    (fun r ->
      Alcotest.(check bool) "simple response roundtrip" true
        (Ascii.parse_response (Ascii.encode_response r) = r))
    [ Stored; Not_stored; Exists; Not_found; Deleted; Touched; Ok; Error;
      Number (-1L) (* max u64 *); Values { with_cas = false; vals = [] };
      Version_reply "1.6"; Client_error "bad"; Server_error "oom";
      Stats_reply [ ("a", "1"); ("b", "2") ] ]

(* A plain get's VALUE line must not leak the CAS unique; a gets reply
   must carry it. *)
let test_ascii_get_vs_gets_rendering () =
  let v = { v_key = "k"; v_flags = 2; v_cas = 77L; v_data = "vv" } in
  let plain = Ascii.encode_response (Values { with_cas = false; vals = [ v ] }) in
  let gets = Ascii.encode_response (Values { with_cas = true; vals = [ v ] }) in
  Alcotest.(check string) "get form: 4 tokens, no cas"
    "VALUE k 2 2\r\nvv\r\nEND\r\n" plain;
  Alcotest.(check string) "gets form: 5 tokens with cas"
    "VALUE k 2 2 77\r\nvv\r\nEND\r\n" gets;
  (match Ascii.parse_response plain with
   | Values { with_cas = false; vals = [ p ] } ->
     Alcotest.(check int64) "no cas on the wire parses as 0" 0L p.v_cas
   | _ -> Alcotest.fail "plain get reply");
  match Ascii.parse_response gets with
  | Values { with_cas = true; vals = [ p ] } ->
    Alcotest.(check int64) "cas preserved" 77L p.v_cas
  | _ -> Alcotest.fail "gets reply"

let binary_roundtrip cmd =
  let wire = Binary.encode_command cmd in
  let parsed, consumed = Binary.parse_command wire in
  Alcotest.(check int) "consumed" (String.length wire) consumed;
  parsed

let test_binary_commands () =
  (match binary_roundtrip (Get [ "key" ]) with
   | Get [ "key" ] -> ()
   | _ -> Alcotest.fail "get");
  (match binary_roundtrip (Set (sp ~flags:9 ~exptime:33 "k" "binary\x00data")) with
   | Set p ->
     Alcotest.(check string) "data" "binary\x00data" p.data;
     Alcotest.(check int) "flags" 9 p.flags;
     Alcotest.(check int) "exptime" 33 p.exptime
   | _ -> Alcotest.fail "set");
  (match binary_roundtrip (Cas (sp "k" "v", 123456789L)) with
   | Cas (_, 123456789L) -> ()
   | _ -> Alcotest.fail "cas via set+cas field");
  (match binary_roundtrip (Incr ("n", 17L, false)) with
   | Incr ("n", 17L, _) -> ()
   | _ -> Alcotest.fail "incr");
  match binary_roundtrip (Delete ("k", false)) with
  | Delete ("k", _) -> ()
  | _ -> Alcotest.fail "delete"

let test_binary_multiget_rejected () =
  (match Binary.encode_command (Get [ "a"; "b" ]) with
   | _ -> Alcotest.fail "expected rejection"
   | exception Invalid_argument _ -> ())

let test_binary_responses () =
  let cmd = Get [ "k" ] in
  let hit =
    Values
      { with_cas = true;
        vals = [ { v_key = "k"; v_flags = 5; v_cas = 9L; v_data = "vv" } ] }
  in
  (match
     Binary.parse_response ~for_cmd:cmd
       (Binary.encode_response ~for_op:Binary.Op.get hit)
   with
  | Values { vals = [ v ]; _ } ->
    Alcotest.(check string) "data" "vv" v.v_data;
    Alcotest.(check int) "flags" 5 v.v_flags;
    Alcotest.(check int64) "cas" 9L v.v_cas
  | _ -> Alcotest.fail "hit");
  (match
     Binary.parse_response ~for_cmd:cmd
       (Binary.encode_response ~for_op:Binary.Op.get
          (Values { with_cas = true; vals = [] }))
   with
  | Values { vals = []; _ } -> ()
  | _ -> Alcotest.fail "miss");
  (match
     Binary.parse_response ~for_cmd:(Incr ("k", 1L, false))
       (Binary.encode_response ~for_op:Binary.Op.increment (Number 41L))
   with
  | Number 41L -> ()
  | _ -> Alcotest.fail "number");
  match
    Binary.parse_response ~for_cmd:(Stats None)
      (Binary.encode_response ~for_op:Binary.Op.stat
         (Stats_reply [ ("x", "1"); ("y", "2") ]))
  with
  | Stats_reply [ ("x", "1"); ("y", "2") ] -> ()
  | _ -> Alcotest.fail "stats"

let test_binary_header_errors () =
  List.iter
    (fun wire ->
      match Binary.parse_command wire with
      | _ -> Alcotest.fail "should not parse"
      | exception Parse_error _ -> ())
    [ String.make 24 '\x00' (* wrong magic *);
      "\x80" ^ String.make 23 '\xff' (* body length insane *) ]

let gen_key =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 32))

let gen_data = QCheck.Gen.(string_size (int_range 0 512))

let qcheck_ascii_set_roundtrip =
  QCheck.Test.make ~name:"ascii set roundtrips arbitrary data" ~count:200
    QCheck.(
      make
        Gen.(
          let* k = gen_key in
          let* d = gen_data in
          let* f = int_range 0 0xFFFF in
          pure (k, d, f)))
    (fun (k, d, f) ->
      match ascii_roundtrip (Set (sp ~flags:f k d)) with
      | Set p -> p.key = k && p.data = d && p.flags = f
      | _ -> false)

let qcheck_binary_set_roundtrip =
  QCheck.Test.make ~name:"binary set roundtrips arbitrary data" ~count:200
    QCheck.(
      make
        Gen.(
          let* k = gen_key in
          let* d = gen_data in
          pure (k, d)))
    (fun (k, d) ->
      match binary_roundtrip (Set (sp k d)) with
      | Set p -> p.key = k && p.data = d
      | _ -> false)

let qcheck_value_response_roundtrip =
  QCheck.Test.make ~name:"ascii VALUE responses roundtrip" ~count:200
    QCheck.(
      make
        Gen.(
          let* k = gen_key in
          let* d = gen_data in
          let* c = int_range 0 1_000_000 in
          pure (k, d, Int64.of_int c)))
    (fun (k, d, c) ->
      let r =
        Values
          { with_cas = true;
            vals = [ { v_key = k; v_flags = 1; v_cas = c; v_data = d } ] }
      in
      Ascii.parse_response (Ascii.encode_response r) = r)

let test_noreply_classification () =
  Alcotest.(check bool) "set noreply" true
    (is_noreply (Set (sp ~noreply:true "k" "v")));
  Alcotest.(check bool) "set reply" false (is_noreply (Set (sp "k" "v")));
  Alcotest.(check bool) "delete noreply" true (is_noreply (Delete ("k", true)));
  Alcotest.(check bool) "incr noreply" true (is_noreply (Incr ("k", 1L, true)));
  Alcotest.(check bool) "get never noreply" false (is_noreply (Get [ "k" ]));
  Alcotest.(check bool) "stats never noreply" false (is_noreply (Stats None))

let test_binary_touch_roundtrip () =
  match binary_roundtrip (Touch ("k", 3600, false)) with
  | Touch ("k", 3600, _) -> ()
  | _ -> Alcotest.fail "touch"

let test_binary_quit_version_flush () =
  List.iter
    (fun cmd ->
      let got = binary_roundtrip cmd in
      Alcotest.(check string) "roundtrip" (command_name cmd) (command_name got))
    [ Quit; Version; Flush_all; Stats None; Stats (Some "slabs") ]

let test_ascii_incr_u64_range () =
  (* the full u64 range must survive the text protocol *)
  match ascii_roundtrip (Incr ("k", -1L (* 2^64-1 *), false)) with
  | Incr ("k", v, _) -> Alcotest.(check int64) "max u64 delta" (-1L) v
  | _ -> Alcotest.fail "incr"

let test_ascii_number_response_u64 () =
  match Ascii.parse_response (Ascii.encode_response (Number (-1L))) with
  | Number v -> Alcotest.(check int64) "max u64 number" (-1L) v
  | _ -> Alcotest.fail "number"

(* Values one past 2^64-1 must be rejected, not wrapped: a wrapped
   delta silently applies a garbage increment, and a wrapped CAS unique
   could spuriously match a live item's unique. 2^64-1 itself is the
   last valid operand on both paths. *)
let test_ascii_u64_overflow_rejected () =
  (* boundary: exactly 2^64-1 parses (as -1L in the int64 carrier) *)
  (match Ascii.parse_command "incr k 18446744073709551615\r\n" with
   | Incr ("k", v, false), _ ->
     Alcotest.(check int64) "2^64-1 delta" (-1L) v
   | _ -> Alcotest.fail "boundary delta should parse");
  (* one digit more: framed, answered, not wrapped *)
  List.iter
    (fun wire ->
      match Ascii.parse_command wire with
      | Invalid m, used ->
        Alcotest.(check string) "memcached's wording"
          "invalid numeric delta argument" m;
        Alcotest.(check int) "whole line consumed" (String.length wire) used
      | _ -> Alcotest.fail ("should frame as Invalid: " ^ String.escaped wire))
    [ "incr k 18446744073709551616\r\n" (* 2^64 *);
      "decr k 99999999999999999999\r\n" (* 20 nines *);
      "incr k 184467440737095516150\r\n" (* valid max * 10 *) ]

let test_ascii_cas_unique_overflow () =
  (* boundary: a 2^64-1 unique survives end-to-end *)
  (match Ascii.parse_command "cas k 0 0 2 18446744073709551615\r\nab\r\n" with
   | Cas ({ key = "k"; data = "ab"; _ }, u), _ ->
     Alcotest.(check int64) "2^64-1 unique" (-1L) u
   | _ -> Alcotest.fail "boundary cas should parse");
  (* an overflowing (or non-numeric) unique frames as Invalid — and the
     parser must still consume the data block the client already sent,
     or every later command in the pipeline parses one request late *)
  List.iter
    (fun wire ->
      match Ascii.parse_command wire with
      | Invalid m, used ->
        Alcotest.(check string) "uniform message" "bad command line format" m;
        Alcotest.(check int) "data block consumed too" (String.length wire)
          used
      | _ -> Alcotest.fail ("should frame as Invalid: " ^ String.escaped wire))
    [ "cas k 0 0 2 18446744073709551616\r\nab\r\n";
      "cas k 0 0 2 99999999999999999999\r\nab\r\n";
      "cas k 0 0 2 notanumber\r\nab\r\n" ];
  (* the pipelined proof: a batch with the bad cas mid-stream stays in
     sync — the follower parses as itself, not as the orphaned data *)
  let wire =
    Ascii.encode_command (Get [ "before" ])
    ^ "cas k 0 0 2 18446744073709551616\r\nab\r\n"
    ^ Ascii.encode_command (Get [ "after" ])
  in
  let cmds, used = Ascii.parse_batch wire in
  Alcotest.(check (list string)) "batch in sync" [ "get"; "invalid"; "get" ]
    (List.map command_name cmds);
  Alcotest.(check int) "all consumed" (String.length wire) used;
  match cmds with
  | [ Get [ "before" ]; Invalid _; Get [ "after" ] ] -> ()
  | _ -> Alcotest.fail "follower desynced by the unconsumed data block"

(* Robustness: arbitrary bytes must never escape as anything but
   Parse_error — a server must survive any garbage a client sends. *)
let qcheck_ascii_fuzz =
  QCheck.Test.make ~name:"ascii parser total on garbage" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 128))
    (fun garbage ->
      match Ascii.parse_command garbage with
      | _ -> true
      | exception Parse_error _ -> true
      | exception Need_more_data -> true
      | exception _ -> false)

let qcheck_binary_fuzz =
  QCheck.Test.make ~name:"binary parser total on garbage" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 128))
    (fun garbage ->
      match Binary.parse_command garbage with
      | _ -> true
      | exception Parse_error _ -> true
      | exception Need_more_data -> true
      | exception _ -> false)

(* Bit-flip fuzz: corrupt one byte of a valid frame. *)
let qcheck_binary_bitflip =
  QCheck.Test.make ~name:"binary parser total on corrupted frames" ~count:500
    QCheck.(pair (int_range 0 200) (int_range 0 255))
    (fun (pos, byte) ->
      let wire =
        Binary.encode_command
          (Set (sp ~flags:1 ~exptime:2 "somekey" "some-value-data"))
      in
      let b = Bytes.of_string wire in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      match Binary.parse_command (Bytes.to_string b) with
      | _ -> true
      | exception Parse_error _ -> true
      | exception Need_more_data -> true
      | exception _ -> false)

(* ---- seeded conformance sweep --------------------------------------

   A deterministic generator (explicit [Random.State], fixed seeds — a
   red run reproduces byte-for-byte) drives full-command encode→decode
   round trips through both codecs, with keys and values pinned to the
   allocator's size-class boundaries (class size, one under, one over)
   where torn-length bugs live. *)

let boundary_lens =
  List.sort_uniq compare
    (0 :: 1
    :: List.concat_map
         (fun c -> [ c - 1; c; c + 1 ])
         (Array.to_list Ralloc.size_classes))

let key_lens = [ 1; 2; 16; 17; 128; 249; 250 ]

let gen_key_at rs =
  let len = List.nth key_lens (Random.State.int rs (List.length key_lens)) in
  String.init len (fun _ -> Char.chr (97 + Random.State.int rs 26))

let gen_data_at rs =
  let len =
    List.nth boundary_lens (Random.State.int rs (List.length boundary_lens))
  in
  String.init len (fun _ -> Char.chr (Random.State.int rs 256))

let gen_params rs =
  { key = gen_key_at rs;
    flags = Random.State.int rs 0x10000;
    exptime = Random.State.int rs 1_000_000;
    data = gen_data_at rs;
    noreply = Random.State.bool rs }

let gen_command ?(multi_get = true) rs =
  match Random.State.int rs 12 with
  | 0 ->
    let n = if multi_get then 1 + Random.State.int rs 3 else 1 in
    Get (List.init n (fun _ -> gen_key_at rs))
  | 1 -> Gets [ gen_key_at rs ]
  | 2 -> Set (gen_params rs)
  | 3 -> Add (gen_params rs)
  | 4 -> Replace (gen_params rs)
  | 5 -> Append (gen_params rs)
  | 6 -> Prepend (gen_params rs)
  | 7 ->
    Cas (gen_params rs, Int64.of_int (1 + Random.State.int rs 1_000_000_000))
  | 8 -> Delete (gen_key_at rs, Random.State.bool rs)
  | 9 ->
    Incr (gen_key_at rs, Int64.of_int (Random.State.int rs 1_000_000),
          Random.State.bool rs)
  | 10 ->
    Decr (gen_key_at rs, Int64.of_int (Random.State.int rs 1_000_000),
          Random.State.bool rs)
  | _ -> Touch (gen_key_at rs, Random.State.int rs 100_000, Random.State.bool rs)

(* What the binary wire can represent: [gets] is a response-shape
   distinction (the header always carries CAS); concatenation ops have
   no extras field, so flags/exptime don't travel; [Touch] has no quiet
   opcode. Everything else — including noreply, via the quiet
   opcodes — must survive exactly. *)
let binary_normalize = function
  | Gets [ k ] -> Get [ k ]
  | Append p -> Append { p with flags = 0; exptime = 0 }
  | Prepend p -> Prepend { p with flags = 0; exptime = 0 }
  | Touch (k, e, _) -> Touch (k, e, false)
  | c -> c

let describe c =
  Printf.sprintf "%s noreply=%b" (command_name c) (is_noreply c)

let test_ascii_seeded_conformance () =
  let rs = Random.State.make [| 0xC0FFEE |] in
  for i = 0 to 999 do
    let cmd = gen_command rs in
    let got = ascii_roundtrip cmd in
    if got <> cmd then
      Alcotest.fail
        (Printf.sprintf "iteration %d: ascii round trip changed %s into %s" i
           (describe cmd) (describe got))
  done

let test_binary_seeded_conformance () =
  let rs = Random.State.make [| 0xB17E5 |] in
  for i = 0 to 999 do
    let cmd = gen_command ~multi_get:false rs in
    let want = binary_normalize cmd in
    let got = binary_roundtrip cmd in
    if got <> want then
      Alcotest.fail
        (Printf.sprintf "iteration %d: binary round trip changed %s into %s" i
           (describe cmd) (describe got))
  done

(* The asymmetry this PR fixed: binary encoding used to drop [noreply]
   (every parse came back noisy). Each noreply-capable command must now
   pick a quiet opcode and map back. *)
let test_binary_noreply_roundtrip () =
  List.iter
    (fun cmd ->
      let got = binary_roundtrip cmd in
      Alcotest.(check bool)
        ("noreply survives binary: " ^ command_name cmd)
        true (is_noreply got);
      (* and the quiet opcode really differs from the noisy one *)
      let quiet = (Binary.encode_command cmd).[1] in
      let noisy =
        (Binary.encode_command
           (match binary_roundtrip cmd with
            | Set p -> Set { p with noreply = false }
            | Add p -> Add { p with noreply = false }
            | Replace p -> Replace { p with noreply = false }
            | Append p -> Append { p with noreply = false }
            | Prepend p -> Prepend { p with noreply = false }
            | Cas (p, c) -> Cas ({ p with noreply = false }, c)
            | Delete (k, _) -> Delete (k, false)
            | Incr (k, d, _) -> Incr (k, d, false)
            | Decr (k, d, _) -> Decr (k, d, false)
            | c -> c)).[1]
      in
      Alcotest.(check bool)
        ("distinct quiet opcode: " ^ command_name cmd)
        true (quiet <> noisy))
    [ Set (sp ~noreply:true "k" "v");
      Add (sp ~noreply:true "k" "v");
      Replace (sp ~noreply:true "k" "v");
      Append (sp ~noreply:true "k" "v");
      Prepend (sp ~noreply:true "k" "v");
      Cas (sp ~noreply:true "k" "v", 5L);
      Delete ("k", true);
      Incr ("k", 1L, true);
      Decr ("k", 2L, true) ]

let test_key_validation () =
  Alcotest.(check bool) "normal" true (validate_key "ok_key-123");
  Alcotest.(check bool) "empty" false (validate_key "");
  Alcotest.(check bool) "space" false (validate_key "a b");
  Alcotest.(check bool) "control" false (validate_key "a\nb");
  Alcotest.(check bool) "250 max" true (validate_key (String.make 250 'k'));
  Alcotest.(check bool) "251 too long" false (validate_key (String.make 251 'k'))

(* Binary keys are length-framed: any byte goes, only the length bound
   applies — and the codec enforces it by framing the request as
   [Invalid] rather than desyncing the stream. *)
let test_binary_key_validation () =
  Alcotest.(check bool) "space ok in binary" true (validate_key_binary "a b");
  Alcotest.(check bool) "control ok in binary" true
    (validate_key_binary "a\x01b");
  Alcotest.(check bool) "empty" false (validate_key_binary "");
  Alcotest.(check bool) "251 too long" false
    (validate_key_binary (String.make 251 'k'));
  (* a space key really travels *)
  (match binary_roundtrip (Get [ "a b" ]) with
   | Get [ "a b" ] -> ()
   | _ -> Alcotest.fail "space key lost");
  (* an over-long key frames as Invalid, whole frame consumed *)
  let wire = Binary.encode_command (Delete (String.make 251 'k', false)) in
  match Binary.parse_command wire with
  | Invalid m, used ->
    Alcotest.(check string) "uniform message" bad_key_error m;
    Alcotest.(check int) "frame consumed" (String.length wire) used
  | _ -> Alcotest.fail "over-long binary key should frame as Invalid"

(* ---- The batch plane: pipelined parse and coalesced encode ---------- *)

let test_ascii_batch_parse () =
  let wire =
    Ascii.encode_command (Set (sp "k1" "v1"))
    ^ Ascii.encode_command (Get [ "k1"; "k2" ])
    ^ Ascii.encode_command (Delete ("k3", false))
    ^ "get partial" (* incomplete tail stays unconsumed *)
  in
  let cmds, used = Ascii.parse_batch wire in
  Alcotest.(check (list string)) "ops in order" [ "set"; "get"; "delete" ]
    (List.map command_name cmds);
  Alcotest.(check int) "tail left in the buffer"
    (String.length wire - String.length "get partial")
    used;
  (* an invalid key mid-batch yields Invalid in place, batch in sync *)
  let wire2 =
    Ascii.encode_command (Get [ "ok1" ])
    ^ "get " ^ String.make 300 'x' ^ "\r\n"
    ^ Ascii.encode_command (Get [ "ok2" ])
  in
  let cmds2, used2 = Ascii.parse_batch wire2 in
  Alcotest.(check (list string)) "invalid framed in place"
    [ "get"; "invalid"; "get" ]
    (List.map command_name cmds2);
  Alcotest.(check int) "all consumed" (String.length wire2) used2;
  (* garbage mid-batch stops the batch at the boundary *)
  let wire3 = Ascii.encode_command (Get [ "ok" ]) ^ "bogus junk\r\n" in
  let cmds3, used3 = Ascii.parse_batch wire3 in
  Alcotest.(check int) "one op before the garbage" 1 (List.length cmds3);
  Alcotest.(check int) "stopped at the boundary"
    (String.length (Ascii.encode_command (Get [ "ok" ])))
    used3;
  (* max_ops bounds a batch *)
  let many = String.concat "" (List.init 10 (fun _ -> "get k\r\n")) in
  let cmds4, used4 = Ascii.parse_batch ~max_ops:4 many in
  Alcotest.(check int) "max_ops honored" 4 (List.length cmds4);
  Alcotest.(check int) "consumed exactly 4" (4 * String.length "get k\r\n")
    used4

let test_binary_batch_parse () =
  (* the binary mget idiom: a quiet-get run closed by a noop *)
  let wire =
    Binary.encode_command
      (Getx { g_key = "a"; g_quiet = true; g_withkey = true })
    ^ Binary.encode_command
        (Getx { g_key = "b"; g_quiet = true; g_withkey = true })
    ^ Binary.encode_command Noop
  in
  let cmds, used = Binary.parse_batch wire in
  Alcotest.(check int) "whole run consumed" (String.length wire) used;
  match cmds with
  | [ Getx { g_key = "a"; g_quiet = true; _ };
      Getx { g_key = "b"; g_quiet = true; _ }; Noop ] ->
    ()
  | _ -> Alcotest.fail "quiet-run parse"

let test_batch_encode_suppression () =
  (* one output buffer; quiet misses and noreply acks dropped, errors
     always answered *)
  let hit k =
    Values
      { with_cas = true;
        vals = [ { v_key = k; v_flags = 0; v_cas = 1L; v_data = "v" } ] }
  in
  let miss = Values { with_cas = true; vals = [] } in
  let quiet k = Getx { g_key = k; g_quiet = true; g_withkey = true } in
  let out =
    Binary.encode_batch
      [ (quiet "a", hit "a"); (quiet "b", miss);
        (Set (sp ~noreply:true "k" "v"), Stored);
        (Invalid bad_key_error, Client_error bad_key_error); (Noop, Ok) ]
  in
  (* the two suppressed replies (quiet miss, noreply ack) are absent:
     hit + error + noop = 3 frames *)
  let rec count at n =
    if at >= String.length out then n
    else
      let _, used = Binary.parse_response_at ~for_cmd:Noop out ~at in
      count (at + used) (n + 1)
  in
  Alcotest.(check int) "three frames" 3 (count 0 0);
  (* ascii side: noreply storage suppressed, errors kept *)
  let aout =
    Ascii.encode_batch
      [ (Set (sp ~noreply:true "k" "v"), Stored);
        (Get [ "k" ], hit "k");
        (Invalid bad_key_error, Client_error bad_key_error) ]
  in
  Alcotest.(check bool) "no STORED line" false
    (String.length aout >= 8 && String.sub aout 0 8 = "STORED\r\n");
  Alcotest.(check bool) "CLIENT_ERROR present" true
    (let rec has at =
       at + 12 <= String.length aout
       && (String.sub aout at 12 = "CLIENT_ERROR" || has (at + 1))
     in
     has 0)

let test_ascii_response_at_positions () =
  let r1 = Ascii.encode_response Stored in
  let r2 =
    Ascii.encode_response
      (Values
         { with_cas = false;
           vals = [ { v_key = "k"; v_flags = 0; v_cas = 0L; v_data = "END" } ] })
  in
  let r3 = Ascii.encode_response (Number 7L) in
  let buf = r1 ^ r2 ^ r3 in
  let a, u1 = Ascii.parse_response_at buf ~at:0 in
  let b, u2 = Ascii.parse_response_at buf ~at:u1 in
  let c, u3 = Ascii.parse_response_at buf ~at:(u1 + u2) in
  Alcotest.(check bool) "stored" true (a = Stored);
  (match b with
   | Values { vals = [ v ]; _ } ->
     Alcotest.(check string) "data containing END survives" "END" v.v_data
   | _ -> Alcotest.fail "values");
  Alcotest.(check bool) "number" true (c = Number 7L);
  Alcotest.(check int) "exact spans" (String.length buf) (u1 + u2 + u3)

(* ---- Hostile length fields (red-team regressions) --------------------- *)

(* Non-canonical data-chunk lengths: negative (the pre-hardening
   connection killer), hex, overflowing, non-digit suffix. Hardened,
   every one is a Parse_error raised while reading the header line,
   before any data block is touched. *)
let test_ascii_hostile_lengths () =
  List.iter
    (fun wire ->
      match Ascii.parse_command wire with
      | _ ->
        Alcotest.fail ("hardened parser accepted: " ^ String.escaped wire)
      | exception Parse_error _ -> ())
    [ "set k 0 0 -2\r\nxx\r\n"; "set k 0 0 -10\r\nxx\r\n";
      "set k 0 0 0x10\r\nxx\r\n"; "set k 0 0 007x\r\nxx\r\n";
      "set k 0 0 99999999999\r\nxx\r\n"; "set k 0 0 4294967296\r\nxx\r\n" ];
  (* over-limit but syntactically fine: refused with the classic
     memcached message *)
  match Ascii.parse_command "set k 0 0 1048577\r\n" with
  | _ -> Alcotest.fail "over-limit length accepted"
  | exception Parse_error m ->
    Alcotest.(check string) "classic refusal" "object too large for cache" m

(* The red half: with the hardening toggle reverted, the negative
   length reaches String.sub and detonates — the crash the fuzzer
   originally surfaced, kept as proof the fix is load-bearing. *)
let test_ascii_negative_len_unhardened_crashes () =
  Defenses.with_off Parser_hardening @@ fun () ->
  match Ascii.parse_command "set k 0 0 -2\r\nxx\r\n" with
  | _ -> Alcotest.fail "expected the unhardened parser to crash"
  | exception Invalid_argument _ -> ()

(* A binary value over the item-size limit frames as [Invalid] with the
   whole frame consumed, so a pipelined batch stays in sync — no
   desync, no reply stolen from the next command. *)
let test_binary_oversize_value_framed () =
  let big = String.make (max_data_bytes + 1) 'v' in
  let frame = Binary.encode_command (Set (sp "k" big)) in
  (match Binary.parse_command frame with
   | Invalid m, used ->
     Alcotest.(check string) "classic refusal" "object too large for cache" m;
     Alcotest.(check int) "whole frame consumed" (String.length frame) used
   | _ -> Alcotest.fail "oversize value must frame as Invalid");
  let wire = frame ^ Binary.encode_command Noop in
  (match Binary.parse_batch wire with
   | [ Invalid _; Noop ], used ->
     Alcotest.(check int) "batch stays in sync" (String.length wire) used
   | _ -> Alcotest.fail "batch desynced after the oversize frame");
  (* unhardened, the bound simply does not exist *)
  Defenses.with_off Parser_hardening @@ fun () ->
  match Binary.parse_command frame with
  | Set p, _ ->
    Alcotest.(check int) "unhardened swallows the oversize value"
      (max_data_bytes + 1) (String.length p.data)
  | _ -> Alcotest.fail "unhardened parse should yield the Set"

let () =
  Alcotest.run "protocol"
    [ ( "ascii",
        [ Alcotest.test_case "get forms" `Quick test_ascii_get_forms;
          Alcotest.test_case "storage forms" `Quick test_ascii_storage_forms;
          Alcotest.test_case "other commands" `Quick test_ascii_other_commands;
          Alcotest.test_case "parse errors" `Quick test_ascii_parse_errors;
          Alcotest.test_case "pipelining" `Quick test_ascii_pipelined_requests;
          Alcotest.test_case "responses" `Quick test_ascii_responses;
          Alcotest.test_case "get vs gets rendering" `Quick
            test_ascii_get_vs_gets_rendering;
          QCheck_alcotest.to_alcotest qcheck_ascii_set_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_value_response_roundtrip ] );
      ( "binary",
        [ Alcotest.test_case "commands" `Quick test_binary_commands;
          Alcotest.test_case "multiget rejected" `Quick
            test_binary_multiget_rejected;
          Alcotest.test_case "responses" `Quick test_binary_responses;
          Alcotest.test_case "header errors" `Quick test_binary_header_errors;
          QCheck_alcotest.to_alcotest qcheck_binary_set_roundtrip;
          Alcotest.test_case "noreply via quiet opcodes" `Quick
            test_binary_noreply_roundtrip ] );
      ( "seeded conformance",
        [ Alcotest.test_case "ascii full-command sweep" `Quick
            test_ascii_seeded_conformance;
          Alcotest.test_case "binary full-command sweep" `Quick
            test_binary_seeded_conformance ] );
      ( "validation",
        [ Alcotest.test_case "keys" `Quick test_key_validation;
          Alcotest.test_case "binary keys" `Quick test_binary_key_validation;
          Alcotest.test_case "short reads want more" `Quick
            test_ascii_short_reads_want_more;
          Alcotest.test_case "noreply classification" `Quick
            test_noreply_classification ] );
      ( "batch plane",
        [ Alcotest.test_case "ascii batch parse" `Quick test_ascii_batch_parse;
          Alcotest.test_case "binary quiet-run parse" `Quick
            test_binary_batch_parse;
          Alcotest.test_case "batch encode suppression" `Quick
            test_batch_encode_suppression;
          Alcotest.test_case "positional responses" `Quick
            test_ascii_response_at_positions ] );
      ( "hostile lengths",
        [ Alcotest.test_case "ascii hostile length tokens" `Quick
            test_ascii_hostile_lengths;
          Alcotest.test_case "ascii negative length crashes unhardened"
            `Quick test_ascii_negative_len_unhardened_crashes;
          Alcotest.test_case "binary oversize value framed in sync" `Quick
            test_binary_oversize_value_framed ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest qcheck_ascii_fuzz;
          QCheck_alcotest.to_alcotest qcheck_binary_fuzz;
          QCheck_alcotest.to_alcotest qcheck_binary_bitflip ] );
      ( "more roundtrips",
        [ Alcotest.test_case "binary touch" `Quick test_binary_touch_roundtrip;
          Alcotest.test_case "binary admin commands" `Quick
            test_binary_quit_version_flush;
          Alcotest.test_case "ascii u64 incr" `Quick test_ascii_incr_u64_range;
          Alcotest.test_case "ascii u64 number" `Quick
            test_ascii_number_response_u64;
          Alcotest.test_case "u64 overflow rejected" `Quick
            test_ascii_u64_overflow_rejected;
          Alcotest.test_case "cas unique overflow framed" `Quick
            test_ascii_cas_unique_overflow ] ) ]
