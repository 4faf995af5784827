(** Seeded grammar-aware fuzzer for the protocol parsers, aimed at the
    batch plane.

    Each case plays an adversarial client (connection A) against a real
    store that also serves an honest victim (connection B, which stored
    a secret under its own key before the attack). The attacker's
    input starts as a {e valid} pipelined batch — built with the real
    encoders, so it exercises the deep parser paths — and is then
    mutated a few seeded ways: truncation, byte flips, CRLF/header
    corruption, splicing of hostile length fields, slice duplication.

    The oracles, per case:
    - {b no crash}: draining the input must raise nothing but the
      protocol's own [Parse_error]/[Need_more_data];
    - {b no desync}: the drain loop terminates and every parser step
      makes progress;
    - {b no cross-connection leak}: the victim's secret bytes never
      appear in the attacker's reply stream;
    - {b no store damage}: afterwards the store still passes
      [check_invariants], a fresh connection round-trips a sentinel,
      and the victim's secret is still intact.

    Everything is deterministic in the seed, so any failing case is
    replayable byte-for-byte; killer inputs graduate into
    [test/corpus/]. *)

module P = Mc_protocol.Types
module A = Mc_protocol.Ascii
module B = Mc_protocol.Binary
module E =
  Mc_server.Executor.Make (Mc_core.Private_memory) (Mc_core.Slab)
    (Platform.Real_sync)

type proto = Ascii | Binary

let proto_string = function Ascii -> "ascii" | Binary -> "binary"

(* Corpus files are named "<proto>-<what>": the prefix picks the
   parser the bytes are replayed against. *)
let proto_of_filename name =
  if String.length name >= 6 && String.sub name 0 6 = "ascii-" then Some Ascii
  else if String.length name >= 7 && String.sub name 0 7 = "binary-" then
    Some Binary
  else None

(* "<proto>-tenant-<what>" additionally replays through the tenant
   harness: the input drains on a connection bound to tenant A while
   tenant B's secret sits in its own namespace. *)
let tenant_a = "ta"
let tenant_b = "tb"

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let tenant_of_filename name =
  if contains ~needle:"-tenant-" name then Some tenant_a else None

type failure =
  | Crash of string  (** parser raised something uncaught *)
  | Desync of string  (** drain loop stopped making progress *)
  | Leak of string  (** another connection's data in our replies *)
  | Store_damage of string  (** invariants or other keys broken *)

let failure_string = function
  | Crash m -> "crash: " ^ m
  | Desync m -> "desync: " ^ m
  | Leak m -> "leak: " ^ m
  | Store_damage m -> "store damage: " ^ m

(* ---- The target ----------------------------------------------------- *)

let secret_key = "rt-secret"
let secret_value = "REDTEAM-SECRET-d41d8cd98f00b204e9800998"

let fresh_store () =
  let arena = Mc_core.Private_memory.create ~limit:(16 lsl 20) in
  let slab = Mc_core.Slab.create ~arena ~mem_limit:(8 lsl 20) in
  let cfg =
    { Mc_core.Store.default_config with
      hashpower = 6; lock_count = 4; lru_count = 2; stats_slots = 4 }
  in
  E.Store.create ~mem:arena ~alloc:slab cfg

(* Both tenants in a scratch registry, as a tenanted deployment's heap
   holds them. No quotas: admission runs but never refuses. *)
let fresh_registry () =
  let region =
    Shm.Region.create ~name:"fuzz-tenants" ~size:Shm.Region.page_size ~pkey:0
      ()
  in
  let reg = Mc_core.Tenant.format region ~base:0 ~max:2 in
  List.iter
    (fun name ->
      ignore
        (Mc_core.Tenant.register reg ~name ~uid:0 ~byte_quota:0 ~item_quota:0))
    [ tenant_a; tenant_b ];
  reg

(* The per-connection drain loop, shaped like Server's: reassembly
   buffer, parse a batch, execute it in one go, encode replies
   honoring suppression, repeat until the buffer yields nothing
   more. A Parse_error answers CLIENT_ERROR and drops the rest of the
   buffer, exactly as the server does.
   [tenants]/[slot] bind the connection to a tenant: the executor then
   scopes, admits and unscopes exactly as it does for a server's bound
   connection. *)
let drain ?tenants ?slot store proto (input : string) :
    (string, failure) result =
  let parse_batch =
    match proto with Ascii -> A.parse_batch | Binary -> B.parse_batch
  in
  let encode_reply cmd resp =
    match proto with
    | Ascii -> A.encode_response resp
    | Binary -> B.encode_reply ~for_cmd:cmd resp
  in
  let buf = ref input in
  let out = Buffer.create 256 in
  (* Each iteration must consume at least one byte, so the input
     length bounds the loop; beyond it the parser is treading water. *)
  let fuel = ref (String.length input + 8) in
  let result = ref (Ok ()) in
  (try
     let continue = ref true in
     while !continue && !buf <> "" do
       decr fuel;
       if !fuel < 0 then begin
         result := Error (Desync "drain loop exceeded its input-length bound");
         continue := false
       end
       else
         match parse_batch !buf with
         | [], _ ->
           (* incomplete trailing request: a real server would wait
              for bytes that will never come *)
           continue := false
         | cmds, consumed ->
           if consumed <= 0 then begin
             result :=
               Error
                 (Desync
                    (Printf.sprintf
                       "parser returned %d commands but consumed 0 bytes"
                       (List.length cmds)));
             continue := false
           end
           else begin
             buf := String.sub !buf consumed (String.length !buf - consumed);
             let pairs = E.pipeline ?tenants ?slot ~batch:true store cmds in
             List.iter
               (fun (cmd, resp) ->
                 if not (P.suppress_reply cmd resp) then
                   Buffer.add_string out (encode_reply cmd resp))
               pairs
           end
         | exception P.Parse_error m ->
           Buffer.add_string out
             (encode_reply (P.Invalid m) (P.Client_error m));
           buf := "";
           continue := false
         | exception P.Need_more_data -> continue := false
     done
   with e -> result := Error (Crash (Printexc.to_string e)));
  match !result with Ok () -> Ok (Buffer.contents out) | Error f -> Error f

let tenant_secret_value = "TENANT-B-SECRET-9f86d081884c7d659a2f"

(* Run one attacker input against a fresh store and apply every
   oracle. This is the unit the corpus replays. In tenant mode the
   victim's secret lives in tenant B's namespace (as B's own scoped
   connection stored it) and the attacker drains as tenant A — the
   leak oracle then catches any key that escapes A's prefix. *)
let run_input ?tenant proto (input : string) : failure list =
  let store = fresh_store () in
  let vic_key, vic_value =
    match tenant with
    | None -> (secret_key, secret_value)
    | Some _ -> (tenant_b ^ "/secret", tenant_secret_value)
  in
  (* connection B, the honest victim, stores its secret first *)
  (match
     E.execute store
       (P.Set
          { P.key = vic_key; flags = 7; exptime = 0; data = vic_value;
            noreply = false })
   with
   | P.Stored -> ()
   | _ -> failwith "fuzz harness: secret not stored");
  let failures = ref [] in
  let tenants, slot =
    match tenant with
    | None -> (None, None)
    | Some name ->
      let reg = fresh_registry () in
      (Some reg, Mc_core.Tenant.find reg name)
  in
  (match drain ?tenants ?slot store proto input with
   | Error f -> failures := [ f ]
   | Ok replies ->
     if contains ~needle:vic_value replies then
       failures :=
         [ Leak "victim's secret appeared in the attacker's reply stream" ]);
  (* post-mortem: the store must still be whole *)
  (try
     E.Store.check_invariants store;
     (match
        E.execute store
          (P.Set
             { P.key = "rt-sentinel"; flags = 0; exptime = 0; data = "alive";
               noreply = false })
      with
      | P.Stored -> ()
      | _ ->
        failures := Store_damage "sentinel set failed" :: !failures);
     (match E.Store.get store "rt-sentinel" with
      | Some g when g.Mc_core.Store.value = "alive" -> ()
      | _ -> failures := Store_damage "sentinel does not read back" :: !failures);
     match E.Store.get store vic_key with
     | Some g when g.Mc_core.Store.value = vic_value -> ()
     | Some _ ->
       failures := Store_damage "victim's secret was altered" :: !failures
     | None ->
       (* legitimate only if the attacker's batch could delete it — it
          cannot: the generator never emits the victim's key, and a
          mutated key that collides would fail validation first *)
       failures := Store_damage "victim's secret vanished" :: !failures
   with e ->
     failures :=
       Store_damage ("check_invariants: " ^ Printexc.to_string e) :: !failures);
  List.rev !failures

(* ---- Grammar-aware generation --------------------------------------- *)

let keys = [| "k0"; "k1"; "k2"; "k3"; "k4"; "k5"; "k6"; "k7" |]

let gen_key rng = keys.(Random.State.int rng (Array.length keys))

let gen_data rng =
  let n = 1 + Random.State.int rng 48 in
  String.init n (fun _ -> Char.chr (0x21 + Random.State.int rng 0x5d))

let gen_params rng =
  { P.key = gen_key rng; flags = Random.State.int rng 0xffff; exptime = 0;
    data = gen_data rng;
    noreply = Random.State.bool rng }

(* One command, valid by construction. Binary mode avoids the two
   shapes its encoder rejects (multi-key get, Invalid). *)
let gen_command rng proto : P.command =
  match Random.State.int rng 10 with
  | 0 | 1 -> P.Set (gen_params rng)
  | 2 -> P.Add (gen_params rng)
  | 3 -> P.Replace (gen_params rng)
  | 4 -> P.Append { (gen_params rng) with P.noreply = false }
  | 5 -> P.Delete (gen_key rng, Random.State.bool rng)
  | 6 -> P.Incr (gen_key rng, Int64.of_int (Random.State.int rng 100), false)
  | 7 -> P.Touch (gen_key rng, 0, Random.State.bool rng)
  | 8 ->
    (match proto with
     | Ascii ->
       let n = 1 + Random.State.int rng 3 in
       P.Get (List.init n (fun _ -> gen_key rng))
     | Binary ->
       P.Getx
         { g_key = gen_key rng; g_quiet = Random.State.bool rng;
           g_withkey = Random.State.bool rng })
  | _ ->
    (match proto with
     | Ascii -> P.Gets [ gen_key rng ]
     | Binary -> P.Noop)

let encode proto cmd =
  match proto with
  | Ascii -> A.encode_command cmd
  | Binary -> B.encode_command cmd

let gen_batch rng proto =
  let n = 3 + Random.State.int rng 8 in
  let cmds = List.init n (fun _ -> gen_command rng proto) in
  let cmds =
    (* a quiet binary run must end with something that answers *)
    match proto with Binary -> cmds @ [ P.Noop ] | Ascii -> cmds
  in
  String.concat "" (List.map (encode proto) cmds)

(* Hostile length fields the grammar-aware splice injects: negative
   (the pre-hardening crash), hex, overflowing, over-limit, non-digit
   suffix. *)
let evil_len_tokens =
  [| "-2"; "-10"; "0x10"; "99999999999"; "4294967296"; "1048577"; "007x" |]

let evil_ascii_line rng =
  let tok = evil_len_tokens.(Random.State.int rng (Array.length evil_len_tokens)) in
  Printf.sprintf "set %s 0 0 %s\r\nxx\r\n" (gen_key rng) tok

(* a binary header whose body length claims far more than the limit *)
let evil_binary_frame rng =
  let b = Buffer.create 24 in
  Buffer.add_char b '\x80';
  Buffer.add_char b '\x01' (* SET *);
  Buffer.add_string b "\x00\x02" (* key len 2 *);
  Buffer.add_char b '\x08' (* extras len *);
  Buffer.add_string b "\x00\x00\x00";
  (* total body: hostile *)
  let body = 0x7f000000 lor Random.State.int rng 0xffff in
  Buffer.add_char b (Char.chr ((body lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((body lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((body lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (body land 0xff));
  Buffer.add_string b (String.make 12 '\x00');
  Buffer.contents b

let mutate rng proto (s : string) : string =
  if s = "" then s
  else
    match Random.State.int rng 5 with
    | 0 ->
      (* truncate: mid-request bytes then silence *)
      String.sub s 0 (Random.State.int rng (String.length s))
    | 1 ->
      (* flip one byte *)
      let i = Random.State.int rng (String.length s) in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)));
      Bytes.to_string b
    | 2 ->
      (* corrupt framing: an ascii CRLF or a binary magic byte *)
      (match proto with
       | Ascii ->
         (match String.index_opt s '\r' with
          | Some i ->
            let b = Bytes.of_string s in
            Bytes.set b i 'X';
            Bytes.to_string b
          | None -> s ^ "\r\n")
       | Binary ->
         let b = Bytes.of_string s in
         Bytes.set b 0 '\x66';
         Bytes.to_string b)
    | 3 ->
      (* splice a hostile frame at a request boundary-ish offset *)
      let insert =
        match proto with
        | Ascii -> evil_ascii_line rng
        | Binary -> evil_binary_frame rng
      in
      let i = Random.State.int rng (String.length s + 1) in
      String.sub s 0 i ^ insert ^ String.sub s i (String.length s - i)
    | _ ->
      (* duplicate a slice: replayed partial requests *)
      let i = Random.State.int rng (String.length s) in
      let len = Random.State.int rng (String.length s - i) in
      s ^ String.sub s i len

let gen_case rng =
  let proto = if Random.State.bool rng then Ascii else Binary in
  let base = gen_batch rng proto in
  let muts = Random.State.int rng 4 in
  let input = ref base in
  for _ = 1 to muts do
    input := mutate rng proto !input
  done;
  (proto, !input)

(* ---- Tenant-targeted mutations --------------------------------------

   Keys an attacker on tenant A's connection aims across the namespace
   boundary: the victim's prefix forged outright, traversal-flavored
   variants, and bare prefix bytes spliced mid-stream so a key tears
   across a request boundary. Host-side scoping must neutralize every
   one of them — the leak oracle is the judge. *)

let tenant_forged_keys =
  [| "tb/secret"; "../tb/secret"; "tb/"; "/tb/secret"; "tb//secret";
     "ta/../tb/secret" |]

let evil_tenant_request rng proto =
  let k =
    tenant_forged_keys.(Random.State.int rng (Array.length tenant_forged_keys))
  in
  match proto with
  | Ascii ->
    (match Random.State.int rng 4 with
     | 0 -> Printf.sprintf "get %s\r\n" k
     | 1 -> Printf.sprintf "gets %s secret\r\n" k
     | 2 -> Printf.sprintf "delete %s\r\n" k
     | _ -> Printf.sprintf "set %s 0 0 4\r\nevil\r\n" k)
  | Binary ->
    B.encode_command
      (P.Getx { g_key = k; g_quiet = false; g_withkey = true })

let mutate_tenant rng proto (s : string) : string =
  match Random.State.int rng 3 with
  | 0 ->
    (* a forged-prefix request spliced at an arbitrary offset *)
    let ins = evil_tenant_request rng proto in
    let i = Random.State.int rng (String.length s + 1) in
    String.sub s 0 i ^ ins ^ String.sub s i (String.length s - i)
  | 1 ->
    (* bare victim-prefix bytes torn into the stream: a prefix splice
       across what the parser sees as one request *)
    let i = Random.State.int rng (String.length s + 1) in
    String.sub s 0 i ^ tenant_b ^ "/" ^ String.sub s i (String.length s - i)
  | _ -> mutate rng proto s

let gen_tenant_case rng =
  let proto = if Random.State.bool rng then Ascii else Binary in
  let base = gen_batch rng proto in
  let muts = 1 + Random.State.int rng 3 in
  let input = ref base in
  for _ = 1 to muts do
    input := mutate_tenant rng proto !input
  done;
  (proto, !input)

(* ---- The campaign --------------------------------------------------- *)

type verdict = {
  v_cases : int;
  v_failures : (proto * string * failure) list;
  (* (protocol, input, what broke) — inputs kept for corpus promotion *)
}

let default_cases = 200

let run ?(cases = default_cases) ~seed () : verdict =
  let rng = Random.State.make [| seed |] in
  let failures = ref [] in
  for _ = 1 to cases do
    let proto, input = gen_case rng in
    List.iter
      (fun f -> failures := (proto, input, f) :: !failures)
      (run_input proto input)
  done;
  { v_cases = cases; v_failures = List.rev !failures }

(* The tenant campaign: same oracles, attacker bound to tenant A,
   victim's secret in tenant B's namespace, every case carrying at
   least one cross-namespace mutation. *)
let run_tenant ?(cases = default_cases) ~seed () : verdict =
  let rng = Random.State.make [| seed; 0x7e4a |] in
  let failures = ref [] in
  for _ = 1 to cases do
    let proto, input = gen_tenant_case rng in
    List.iter
      (fun f -> failures := (proto, input, f) :: !failures)
      (run_input ~tenant:tenant_a proto input)
  done;
  { v_cases = cases; v_failures = List.rev !failures }

let pp_verdict v =
  if v.v_failures = [] then
    Printf.sprintf "%d cases: clean" v.v_cases
  else
    Printf.sprintf "%d cases: %d failures (first: [%s] %s)" v.v_cases
      (List.length v.v_failures)
      (let p, _, _ = List.hd v.v_failures in
       proto_string p)
      (let _, _, f = List.hd v.v_failures in
       failure_string f)
