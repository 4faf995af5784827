(** Per-connection SPSC submission/completion rings in the shared
    heap.

    Each ring is a fixed array of sequence-stamped slots plus a small
    header, living inside the Ralloc heap so it survives a crash with
    the rest of the store. The producer writes a message's payload
    (spanning one or more consecutive slots), stamps every slot's
    sequence word — the *first* slot last — and only then advances the
    header tail. A torn message therefore has a stale first-slot
    sequence and is simply absent after recovery: in-flight-but-unacked
    entries are discarded, while everything at or below the consumer's
    acked watermark was already executed and survives through the
    store itself.

    This module is pure region mechanics: no substrate, no cost
    charging, no pkru manipulation. Callers hold whatever protection
    key the ring's pages are sealed under ({!Pku.Vpkey} grants, wired
    up by the server) and charge their own simulated costs. *)

module Region = Shm.Region

type t = {
  region : Region.t;
  base : int;
  slots : int;
  slot_bytes : int;
}

let magic = 0x52494E4731 (* "RING1" *)

let hdr_bytes = 64

(* Header word offsets (bytes, relative to [base]). *)
let o_magic = 0
let o_slots = 8
let o_slot_bytes = 16
let o_head = 24 (* consumer position, slot-granular, monotonic *)
let o_tail = 32 (* producer position, slot-granular, monotonic *)
let o_acked = 40 (* consumer-acked watermark, <= head *)
let o_armed = 48 (* consumer parked, wants a doorbell *)
let o_dead = 56 (* connection bounced; producer must stop *)

(* Slot layout: [seq:8][len:8][stamp:8][payload]. [seq] is position+1
   when published (0 = never written at this wrap). [len] holds the
   message's total length in the first slot and the fragment length in
   continuations. [stamp] is the producer's enqueue time (first slot;
   0 in continuations) — the oldest pending stamp backdates the
   server's trace, so time spent waiting in the ring shows as its
   queue phase. *)
let slot_hdr = 24

let bytes_for ~slots ~slot_bytes = hdr_bytes + (slots * slot_bytes)

let frag_cap t = t.slot_bytes - slot_hdr

let max_msg t = t.slots * frag_cap t

let slot_off t pos = t.base + hdr_bytes + (pos mod t.slots * t.slot_bytes)

let rd t o = Region.read_i64 t.region (t.base + o)

let wr t o v = Region.write_i64 t.region (t.base + o) v

let init region ~base ~slots ~slot_bytes =
  if slots < 2 || slot_bytes < slot_hdr + 8 then
    invalid_arg "Ring.init: degenerate geometry";
  let t = { region; base; slots; slot_bytes } in
  Region.fill region ~off:base ~len:(bytes_for ~slots ~slot_bytes) '\000';
  wr t o_slots slots;
  wr t o_slot_bytes slot_bytes;
  wr t o_magic magic;
  t

let attach region ~base =
  let t0 = { region; base; slots = 0; slot_bytes = 0 } in
  if rd t0 o_magic <> magic then invalid_arg "Ring.attach: bad magic";
  let slots = rd t0 o_slots and slot_bytes = rd t0 o_slot_bytes in
  if slots < 2 || slot_bytes < slot_hdr + 8 then
    invalid_arg "Ring.attach: corrupt geometry";
  { region; base; slots; slot_bytes }

let head t = rd t o_head
let tail t = rd t o_tail
let acked t = rd t o_acked

let slots_used t = tail t - head t

let is_empty t = slots_used t = 0

let consumer_armed t = rd t o_armed <> 0

let set_armed t v = wr t o_armed (if v then 1 else 0)

let is_dead t = rd t o_dead <> 0

let mark_dead t = wr t o_dead 1

let slots_for t len = (len + frag_cap t - 1) / frag_cap t

let has_room t ~len =
  let n = max 1 (slots_for t len) in
  slots_used t + n <= t.slots

(* ---- producer -------------------------------------------------------- *)

let produce t ~stamp payload =
  let len = String.length payload in
  if len = 0 || len > max_msg t then invalid_arg "Ring.produce: bad length";
  if not (has_room t ~len) then invalid_arg "Ring.produce: ring full";
  let cap = frag_cap t in
  let p0 = tail t in
  let nfrag = slots_for t len in
  (* Continuation fragments first, first slot's seq stamped last: the
     message becomes visible — and recoverable — atomically. *)
  for j = nfrag - 1 downto 0 do
    let pos = p0 + j in
    let off = slot_off t pos in
    let frag_at = j * cap in
    let frag_len = min cap (len - frag_at) in
    Region.write_i64 t.region (off + 8)
      (if j = 0 then len else frag_len);
    Region.write_i64 t.region (off + 16) (if j = 0 then stamp else 0);
    Region.blit_from_bytes t.region
      ~src:(Bytes.unsafe_of_string payload)
      ~src_off:frag_at ~dst_off:(off + slot_hdr) ~len:frag_len;
    Region.write_i64 t.region off (pos + 1)
  done;
  wr t o_tail (p0 + nfrag)

(* ---- consumer -------------------------------------------------------- *)

type pending = {
  p_msgs : int;
  p_slots : int;
  p_first_stamp : int;
}

(* Walk the published window, validating every slot header before
   anything downstream trusts it. Returns [Error] on the forgeries the
   red team throws at us: a stomped head/tail pair, a sequence stamp
   that does not match its position, a length outside the message
   envelope. *)
let walk t =
  let validate = Defenses.on Ring_validation in
  let h = head t and tl = tail t in
  let used = tl - h in
  if used = 0 then Ok None
  else if validate && (used < 0 || used > t.slots) then
    Error
      (Printf.sprintf "ring overfilled: head=%d tail=%d slots=%d" h tl t.slots)
  else begin
    let cap = frag_cap t in
    let bad = ref None in
    let msgs = ref 0 in
    let nslots = ref 0 in
    let first_stamp = ref 0 in
    let pos = ref h in
    (* Bound the walk even when validation is off and the headers lie. *)
    let limit = min tl (h + t.slots) in
    while !bad = None && !pos < limit do
      let off = slot_off t !pos in
      let seq = Region.read_i64 t.region off in
      let len = Region.read_i64 t.region (off + 8) in
      let stamp = Region.read_i64 t.region (off + 16) in
      if validate && seq <> !pos + 1 then
        bad := Some (Printf.sprintf "forged seq %d at position %d" seq !pos)
      else if validate && (len <= 0 || len > max_msg t) then
        bad := Some (Printf.sprintf "forged length %d at position %d" len !pos)
      else begin
        let nfrag = max 1 (slots_for t (max 1 len)) in
        if validate && !pos + nfrag > tl then
          bad :=
            Some
              (Printf.sprintf "truncated message at position %d (%d slots)"
                 !pos nfrag)
        else begin
          if validate then
            for j = 1 to nfrag - 1 do
              let coff = slot_off t (!pos + j) in
              let cseq = Region.read_i64 t.region coff in
              let clen = Region.read_i64 t.region (coff + 8) in
              let want = min cap (len - (j * cap)) in
              if cseq <> !pos + j + 1 || clen <> want then
                bad :=
                  Some
                    (Printf.sprintf "torn continuation at position %d"
                       (!pos + j))
            done;
          if !bad = None then begin
            if !msgs = 0 then first_stamp := stamp;
            incr msgs;
            nslots := !nslots + nfrag;
            pos := !pos + nfrag
          end
        end
      end
    done;
    match !bad with
    | Some e -> Error e
    | None ->
      Ok
        (Some
           { p_msgs = !msgs; p_slots = !nslots; p_first_stamp = !first_stamp })
  end

let pending t = walk t

let read_msg t pos len =
  let cap = frag_cap t in
  if Defenses.on Ring_validation then begin
    (* Fragment-clamped copy: every read stays inside the ring no
       matter what the header claims (the walk already vetted [len]). *)
    let out = Bytes.create len in
    let nfrag = slots_for t len in
    for j = 0 to nfrag - 1 do
      let frag_at = j * cap in
      let frag_len = min cap (len - frag_at) in
      Region.blit_to_bytes t.region
        ~src_off:(slot_off t (pos + j) + slot_hdr)
        ~dst:out ~dst_off:frag_at ~len:frag_len
    done;
    Bytes.unsafe_to_string out
  end
  else
    (* Pre-fix fast path: trust the header's length and read the
       message as one contiguous span. A forged length walks straight
       off the ring — into whatever the caller's keys let it read. *)
    Region.read_string t.region ~off:(slot_off t pos + slot_hdr) ~len

(* Drain every published message, advancing head and the acked
   watermark together: once this returns, the entries are the
   consumer's problem (the server executes them under the same
   crossing), and recovery must not replay them. *)
let consume_all t =
  match walk t with
  | Error _ as e -> e
  | Ok None -> Ok []
  | Ok (Some _) ->
    let h = head t and tl = tail t in
    let limit = min tl (h + t.slots) in
    let out = ref [] in
    let pos = ref h in
    while !pos < limit do
      let off = slot_off t !pos in
      let len = Region.read_i64 t.region (off + 8) in
      let stamp = Region.read_i64 t.region (off + 16) in
      let msg = read_msg t !pos len in
      out := (msg, stamp) :: !out;
      pos := !pos + max 1 (slots_for t (max 1 len))
    done;
    wr t o_head !pos;
    wr t o_acked !pos;
    Ok (List.rev !out)

(* Pop a single message with its stamp (the client consuming
   completions). Returns [None] when the ring is empty. *)
let consume_one t =
  match walk t with
  | Error e -> invalid_arg ("Ring.consume_one: " ^ e)
  | Ok None -> None
  | Ok (Some _) ->
    let h = head t in
    let off = slot_off t h in
    let len = Region.read_i64 t.region (off + 8) in
    let stamp = Region.read_i64 t.region (off + 16) in
    let msg = read_msg t h len in
    let h' = h + max 1 (slots_for t (max 1 len)) in
    wr t o_head h';
    wr t o_acked h';
    Some (msg, stamp)

(* ---- recovery -------------------------------------------------------- *)

(* Repair a ring after a crash: clamp broken header invariants, then
   truncate the published window at the first torn entry. Entries the
   producer stamped-and-advanced survive verbatim; an entry whose
   first-slot sequence was never stamped (the kill landed mid-produce)
   is discarded — present-or-absent, never torn. *)
let recover t =
  let h = rd t o_head in
  let tl = rd t o_tail in
  let a = rd t o_acked in
  let h = max 0 h in
  let tl = if tl < h || tl - h > t.slots then h else tl in
  let a = min (max 0 a) h in
  wr t o_head h;
  wr t o_acked a;
  wr t o_armed 0;
  let cap = frag_cap t in
  let pos = ref h in
  let good = ref h in
  let stop = ref false in
  while (not !stop) && !pos < tl do
    let off = slot_off t !pos in
    let seq = Region.read_i64 t.region off in
    let len = Region.read_i64 t.region (off + 8) in
    if seq <> !pos + 1 || len <= 0 || len > max_msg t then stop := true
    else begin
      let nfrag = slots_for t len in
      if !pos + nfrag > tl then stop := true
      else begin
        for j = 1 to nfrag - 1 do
          let coff = slot_off t (!pos + j) in
          let want = min cap (len - (j * cap)) in
          if
            Region.read_i64 t.region coff <> !pos + j + 1
            || Region.read_i64 t.region (coff + 8) <> want
          then stop := true
        done;
        if not !stop then begin
          pos := !pos + nfrag;
          good := !pos
        end
      end
    end
  done;
  wr t o_tail !good

(* ---- layout introspection (the red team's map of the pages) ---------- *)

let region t = t.region

let slot_word t pos = slot_off t pos

let tail_word t = t.base + o_tail
