(** Tenant registry mechanics — see tenant.mli for the model. *)

module R = Shm.Region

let max_name = 40

(* Block layout: a 16-byte header, then [max] fixed-size slots.
   Everything is an 8-byte word so recovery's torn-write story is the
   store's own: single-word updates, recomputed where they can tear. *)
let magic = 0x7E4A_4E54 (* "~JNT" *)

let hdr_size = 16

(* slot: 0 name_len | 8 name[40] | 48 active | 56 uid | 64 vkey
   | 72 byte_quota | 80 item_quota | 88 bytes_used | 96 items_used
   | 104 cmd_get | 112 get_hits | 120 cmd_set | 128 evictions
   | 136 reserved *)
let esz = 144

let o_name_len = 0
let o_name = 8
let o_active = 48
let o_uid = 56
let o_vkey = 64
let o_byte_quota = 72
let o_item_quota = 80
let o_bytes_used = 88
let o_items_used = 96
let o_cmd_get = 104
let o_get_hits = 112
let o_cmd_set = 120
let o_evictions = 128

type t = { region : R.t; base : int; max : int }

let size_for ~max = hdr_size + (max * esz)

let base t = t.base

let max_tenants t = t.max

let entry t i =
  if i < 0 || i >= t.max then invalid_arg "Tenant: slot out of range";
  t.base + hdr_size + (i * esz)

let rd t off = R.read_i64 t.region off
let wr t off v = R.write_i64 t.region off v

let format region ~base ~max =
  if max < 1 then invalid_arg "Tenant.format: max < 1";
  let t = { region; base; max } in
  R.fill region ~off:base ~len:(size_for ~max) '\000';
  wr t base magic;
  wr t (base + 8) max;
  t

let attach region ~base =
  let probe = { region; base; max = 1 } in
  if rd probe base <> magic then
    invalid_arg "Tenant.attach: bad registry magic";
  { region; base; max = rd probe (base + 8) }

let active t i = rd t (entry t i + o_active) <> 0

let name_of t i =
  let e = entry t i in
  R.read_string t.region ~off:(e + o_name) ~len:(rd t (e + o_name_len))

let uid_of t i = rd t (entry t i + o_uid)

let vkey_of t i = rd t (entry t i + o_vkey)

let set_vkey t i vk = wr t (entry t i + o_vkey) vk

let byte_quota t i = rd t (entry t i + o_byte_quota)

let item_quota t i = rd t (entry t i + o_item_quota)

let bytes_used t i = rd t (entry t i + o_bytes_used)

let items_used t i = rd t (entry t i + o_items_used)

let iter_active t f =
  for i = 0 to t.max - 1 do
    if active t i then f i
  done

let count_active t =
  let n = ref 0 in
  iter_active t (fun _ -> incr n);
  !n

let find t name =
  let found = ref None in
  (try
     iter_active t (fun i ->
         if name_of t i = name then begin
           found := Some i;
           raise Exit
         end)
   with Exit -> ());
  !found

let valid_name name =
  let n = String.length name in
  n >= 1 && n <= max_name
  && String.for_all (fun c -> c > ' ' && c < '\x7f' && c <> '/') name

let register t ~name ~uid ~byte_quota ~item_quota =
  if not (valid_name name) then
    invalid_arg ("Tenant.register: invalid name " ^ String.escaped name);
  if find t name <> None then
    invalid_arg ("Tenant.register: duplicate tenant " ^ name);
  let rec first_free i =
    if i >= t.max then invalid_arg "Tenant.register: registry full"
    else if active t i then first_free (i + 1)
    else i
  in
  let i = first_free 0 in
  let e = entry t i in
  R.fill t.region ~off:e ~len:esz '\000';
  R.write_string t.region ~off:(e + o_name) name;
  wr t (e + o_name_len) (String.length name);
  wr t (e + o_uid) uid;
  wr t (e + o_byte_quota) byte_quota;
  wr t (e + o_item_quota) item_quota;
  (* active last: a crash mid-register leaves a never-active slot,
     which recovery sees as free *)
  wr t (e + o_active) 1;
  i

(* ---- namespacing ----------------------------------------------------- *)

let prefix t i = name_of t i ^ "/"

let scope t i key =
  if Defenses.on Tenant_namespace then prefix t i ^ key else key

let owner_slot_of_key t key =
  match String.index_opt key '/' with
  | None -> None
  | Some sl ->
    let name = String.sub key 0 sl in
    (match find t name with
     | Some i when active t i -> Some i
     | _ -> None)

(* ---- quotas and accounting ------------------------------------------- *)

let charge t i ~bytes ~items =
  let e = entry t i in
  wr t (e + o_bytes_used) (max 0 (rd t (e + o_bytes_used) + bytes));
  wr t (e + o_items_used) (max 0 (rd t (e + o_items_used) + items))

let set_usage t i ~bytes ~items =
  let e = entry t i in
  wr t (e + o_bytes_used) bytes;
  wr t (e + o_items_used) items

let would_exceed t i ~add_bytes ~add_items =
  Defenses.on Tenant_quota
  && (add_bytes > 0 || add_items > 0)
  &&
  let e = entry t i in
  let bq = rd t (e + o_byte_quota) and iq = rd t (e + o_item_quota) in
  (bq > 0 && rd t (e + o_bytes_used) + add_bytes > bq)
  || (iq > 0 && rd t (e + o_items_used) + add_items > iq)

(* ---- stats ----------------------------------------------------------- *)

type stat = Cmd_get | Get_hits | Cmd_set | Evictions

let stat_off = function
  | Cmd_get -> o_cmd_get
  | Get_hits -> o_get_hits
  | Cmd_set -> o_cmd_set
  | Evictions -> o_evictions

let bump t i s =
  let off = entry t i + stat_off s in
  wr t off (rd t off + 1)

let stat t i s = rd t (entry t i + stat_off s)

let stats_kvs t =
  let rows = ref [] in
  iter_active t (fun i ->
      let n = name_of t i in
      let kv field v = (Printf.sprintf "tenant:%s:%s" n field, string_of_int v) in
      rows :=
        [ kv "cmd_get" (stat t i Cmd_get);
          kv "get_hits" (stat t i Get_hits);
          kv "cmd_set" (stat t i Cmd_set);
          kv "evictions" (stat t i Evictions);
          kv "bytes" (bytes_used t i);
          kv "items" (items_used t i);
          kv "bytes_quota" (byte_quota t i);
          kv "items_quota" (item_quota t i) ]
        :: !rows);
  List.concat (List.rev !rows)

let reset_stats t =
  iter_active t (fun i ->
      let e = entry t i in
      wr t (e + o_cmd_get) 0;
      wr t (e + o_get_hits) 0;
      wr t (e + o_cmd_set) 0;
      wr t (e + o_evictions) 0)

(* ---- admission -------------------------------------------------------- *)

let evict_rounds = 64

let admit t i ~evict op =
  let quota =
    { Store.fits =
        (fun ~bytes ~items ->
          not (would_exceed t i ~add_bytes:bytes ~add_items:items));
      charge = (fun ~bytes ~items -> charge t i ~bytes ~items) }
  in
  (* a full tenant evicts only its own items: one pass over its LRU
     list, under its prefix and outside the op's stripe, then the op
     runs afresh — the pass may have taken the key itself *)
  let rec attempt tries =
    match op quota with
    | r -> Some r
    | exception Store.Over_quota ->
      if
        tries > 0
        && evict ~lru:i ~pred:(String.starts_with ~prefix:(prefix t i)) > 0
      then attempt (tries - 1)
      else None
  in
  attempt evict_rounds
