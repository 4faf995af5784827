(** The benchmark's own load generator and value oracle.

    Only [Ycsb.Rng] and [Ycsb.Zipfian] are borrowed from the repo; the
    op mix, key choice, value bytes and the check of every hit live
    here, so the program under test only ever sees generated inputs.

    A value is [<tenant>:<key index>:<version>:] followed by padding
    up to the size the seed picks for that (key, version). The oracle
    re-derives the whole value from the header it reads back, so a hit
    carrying another tenant's bytes, another key's bytes, a version
    nobody wrote, or torn padding is caught as wrong bytes. *)

type op = Get | Set | Delete

(* A pure per-(seed, a, b) draw: properties of a key or of one write
   must not depend on how far some client's stream has advanced. *)
let hash seed a b =
  let r = Ycsb.Rng.create ((seed * 1_000_003) + (a * 7_919) + (b * 104_729)) in
  Int64.to_int (Int64.shift_right_logical (Ycsb.Rng.next_i64 r) 2)

let key k = Printf.sprintf "key:%08d" k

let header ~tenant ~k ~ver = Printf.sprintf "%d:%d:%d:" tenant k ver

let pad_char ~seed ~k ~ver = Char.chr (97 + (hash seed k ver mod 26))

let value ~seed ~size ~tenant ~k ~ver =
  let h = header ~tenant ~k ~ver in
  h ^ String.make (max 0 (size - String.length h)) (pad_char ~seed ~k ~ver)

(* ---- Oracle ------------------------------------------------------------ *)

type oracle = {
  seed : int;
  keys : int;  (** keys per tenant *)
  size : k:int -> ver:int -> int;
  issued : int array;  (** newest version handed out, per (tenant, key) *)
}

let oracle ~seed ~tenants ~keys ~size =
  { seed; keys; size; issued = Array.make (tenants * keys) 0 }

(* Next version of a key, taken when a set is issued. Versions count
   up from 1; the load phase writes version 1 of every key. *)
let issue o ~tenant ~k =
  let i = (tenant * o.keys) + k in
  o.issued.(i) <- o.issued.(i) + 1;
  o.issued.(i)

let write o ~tenant ~k =
  let ver = issue o ~tenant ~k in
  value ~seed:o.seed ~size:(o.size ~k ~ver) ~tenant ~k ~ver

(* Three ':'-terminated decimal fields and the offset after them. *)
let parse_header v =
  let n = String.length v in
  let rec field i acc =
    if i >= n then None
    else
      match v.[i] with
      | '0' .. '9' as c -> field (i + 1) ((acc * 10) + Char.code c - 48)
      | ':' -> Some (acc, i + 1)
      | _ -> None
  in
  match field 0 0 with
  | None -> None
  | Some (t, i) -> (
    match field i 0 with
    | None -> None
    | Some (k, i) -> (
      match field i 0 with
      | None -> None
      | Some (ver, i) -> Some (t, k, ver, i)))

(* A hit is right when its bytes are exactly some version of this
   (tenant, key) that has been issued: concurrent sets of one key may
   land in either order, so any issued version is acceptable. The
   padding is checked in place, so checking allocates nothing. *)
let check o ~tenant ~k v =
  match parse_header v with
  | Some (t, k', ver, body) when t = tenant && k' = k && ver >= 1 ->
    ver <= o.issued.((tenant * o.keys) + k)
    && String.length v = max body (o.size ~k ~ver)
    &&
    let pad = pad_char ~seed:o.seed ~k ~ver in
    let rec padded i = i >= String.length v || (v.[i] = pad && padded (i + 1)) in
    padded body
  | _ -> false

(* ---- Op streams -------------------------------------------------------- *)

type keys = Zipf of Ycsb.Zipfian.t | Uniform of int

type stream = { rng : Ycsb.Rng.t; keys : keys }

(* One stream per (workload, client): [salt] names the workload so two
   workloads at one seed draw different streams. *)
let stream ~seed ~salt ~client keys =
  { rng = Ycsb.Rng.create (hash seed salt client); keys }

let next_key s =
  match s.keys with
  | Zipf z -> Ycsb.Zipfian.next_scrambled z s.rng
  | Uniform n -> Ycsb.Rng.next_int s.rng n

let next_float s = Ycsb.Rng.next_float s.rng

(* [get] and [set] are shares; the rest of the mix is deletes. *)
let next_op s ~get ~set =
  let u = Ycsb.Rng.next_float s.rng in
  if u < get then Get else if u < get +. set then Set else Delete
