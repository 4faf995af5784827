(** Virtual pkeys: an unbounded key space multiplexed onto the 16
    hardware slots with LRU eviction, quarantine re-tagging and lazy
    sync — see vpkey.mli for the protocol and the trust model. *)

type t = int

exception Unknown_vkey of int

exception Permission_denied of string

type vk = {
  id : int;
  owner : int;
  mutable hw : Pkey.t option;  (* the slot currently backing us *)
  mutable last_use : int;      (* LRU stamp (bind ticks) *)
  mutable retags : (Pkey.t -> unit) list;
}

let default_hw_cap = 12

let lock = Mutex.create ()

(* Everything below the lock line is guarded by [lock]. *)
let table : (int, vk) Hashtbl.t = Hashtbl.create 64
let slots : (Pkey.t, vk) Hashtbl.t = Hashtbl.create 16
let pool : Pkey.t list ref = ref [] (* hw keys we own, currently free *)
let quarantine : Pkey.t option ref = ref None
let hw_cap = ref default_hw_cap
let next_id = ref 1
let clock = ref 0

(* Monotonic process-local stats (telemetry mirrors them, but the
   bench needs them with TELEMETRY=off too). *)
let n_binds = ref 0
let n_misses = ref 0
let n_evictions = ref 0

let locked f =
  Mutex.lock lock;
  match f () with
  | v -> Mutex.unlock lock; v
  | exception e -> Mutex.unlock lock; raise e

(* Eviction, rebind and free re-tag a vkey's memory: one
   pkey_mprotect per range walked, the seat of libmpk's slot-miss
   cost. [f] counts the ranges into [walked] under the lock; the
   charge runs after unlocking, because it may advance virtual time —
   a scheduler sync point where a crash kill can switch fibers. *)
let charge_retags walked =
  Telemetry.Control.advance
    (!walked * Platform.Cost_model.current.pkey_mprotect)

let retagging f =
  let walked = ref 0 in
  match locked (fun () -> f walked) with
  | v -> charge_retags walked; v
  | exception e -> charge_retags walked; raise e

let retag walked vk k =
  walked := !walked + List.length vk.retags;
  List.iter (fun f -> f k) vk.retags

let find_locked id =
  match Hashtbl.find_opt table id with
  | Some vk -> vk
  | None -> raise (Unknown_vkey id)

let quarantine_locked () =
  match !quarantine with
  | Some k -> k
  | None ->
    let k = Pkey.alloc () in
    quarantine := Some k;
    k

(* Pick the least-recently-bound vkey, quarantine its ranges, and hand
   its slot to the caller. *)
let evict_one_locked walked =
  if not (Defenses.on Vkey_eviction) then raise Pkey.Out_of_keys;
  let victim =
    Hashtbl.fold
      (fun _ vk best ->
        match best with
        | Some b when b.last_use <= vk.last_use -> best
        | _ -> Some vk)
      slots None
  in
  match victim with
  | None -> raise Pkey.Out_of_keys (* cap 0 and empty pool: impossible *)
  | Some vk ->
    let k = match vk.hw with Some k -> k | None -> assert false in
    Hashtbl.remove slots k;
    vk.hw <- None;
    if Defenses.on Vkey_quarantine then retag walked vk (quarantine_locked ());
    incr n_evictions;
    Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_evictions;
    k

let acquire_slot_locked walked =
  match !pool with
  | k :: rest -> pool := rest; k
  | [] ->
    if Hashtbl.length slots < !hw_cap then
      (try Pkey.alloc () with Pkey.Out_of_keys -> evict_one_locked walked)
    else evict_one_locked walked

let bind_locked walked vk =
  incr clock;
  vk.last_use <- !clock;
  incr n_binds;
  Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_binds;
  match vk.hw with
  | Some k -> k
  | None ->
    incr n_misses;
    Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_slot_misses;
    let k = acquire_slot_locked walked in
    vk.hw <- Some k;
    Hashtbl.replace slots k vk;
    (* lazy sync: the ranges were parked on the quarantine key since
       our eviction; re-tag them to the slot we just won *)
    retag walked vk k;
    k

let check_owner vk = function
  | None -> ()
  | Some o ->
    if Defenses.on Vkey_owner_checks && o <> 0 && o <> vk.owner then
      raise
        (Permission_denied
           (Printf.sprintf "vkey%d belongs to uid %d; bind by uid %d refused"
              vk.id vk.owner o))

let alloc ?(owner = 0) () =
  locked (fun () ->
      let id = !next_id in
      incr next_id;
      Hashtbl.replace table id
        { id; owner; hw = None; last_use = 0; retags = [] };
      id)

let restore ~id ~owner =
  locked (fun () ->
      if not (Hashtbl.mem table id) then
        Hashtbl.replace table id
          { id; owner; hw = None; last_use = 0; retags = [] };
      if id >= !next_id then next_id := id + 1)

let free id =
  retagging (fun walked ->
      let vk = find_locked id in
      (match vk.hw with
       | Some k ->
         Hashtbl.remove slots k;
         vk.hw <- None;
         pool := k :: !pool
       | None -> ());
      (* the id is dead; its memory must not stay readable under a
         recycled slot *)
      if vk.retags <> [] then retag walked vk (quarantine_locked ());
      Hashtbl.remove table id)

let bind ?owner id =
  retagging (fun walked ->
      let vk = find_locked id in
      check_owner vk owner;
      bind_locked walked vk)

let hw_key id = locked (fun () -> (find_locked id).hw)

let owner_of id = locked (fun () -> (find_locked id).owner)

let attach_retag id f =
  locked (fun () ->
      let vk = find_locked id in
      vk.retags <- f :: vk.retags;
      (* apply the current mapping right away: bound -> the live slot,
         unbound -> quarantined until the next bind *)
      match vk.hw with
      | Some k -> f k
      | None -> f (quarantine_locked ()))

let quarantine_key () = locked quarantine_locked

(* ---- per-thread pkru shadow ----------------------------------------- *)

(* (vkey id, hw slot at grant time) for every vkey this thread has
   enabled. The slot table can move bindings underneath us; crossings
   call [sync_thread] to reconcile. *)
let shadow_key : (int * Pkey.t) list ref Tls.key =
  Tls.new_key (fun () -> ref [])

let enable ?owner id =
  let k = bind ?owner id in
  Pkru.wrpkru (Pkru.set_perm (Pkru.read ()) k Pkru.Enable);
  let s = Tls.get shadow_key in
  s := (id, k) :: List.remove_assoc id !s;
  k

let disable id =
  let s = Tls.get shadow_key in
  match List.assoc_opt id !s with
  | None -> ()
  | Some k ->
    s := List.remove_assoc id !s;
    if not (List.exists (fun (_, k') -> k' = k) !s) then
      Pkru.wrpkru (Pkru.set_perm (Pkru.read ()) k Pkru.Access_disable)

let sync_thread () =
  let s = Tls.get shadow_key in
  match !s with
  | [] -> ()
  | entries ->
    (* Re-derive each grant from the slot table: dead vkeys drop, moved
       vkeys re-bind (no ownership check — the thread held the grant). *)
    let survivors =
      retagging (fun walked ->
          List.filter_map
            (fun (id, k) ->
              match Hashtbl.find_opt table id with
              | None -> None
              | Some vk ->
                (match vk.hw with
                 | Some k' when k' = k -> Some (id, k)
                 | _ -> Some (id, bind_locked walked vk)))
            entries)
    in
    let new_ks = List.map snd survivors in
    let v =
      List.fold_left
        (fun v (_, k) ->
          if List.mem k new_ks then v
          else Pkru.set_perm v k Pkru.Access_disable)
        (Pkru.read ()) entries
    in
    let v = List.fold_left (fun v k -> Pkru.set_perm v k Pkru.Enable) v new_ks in
    if v <> Pkru.read () then Pkru.wrpkru v;
    s := survivors

(* ---- capacity / introspection --------------------------------------- *)

let set_hw_cap n = locked (fun () -> hw_cap := max 1 (min 14 n))

let slots_in_use () = locked (fun () -> Hashtbl.length slots)

let live_vkeys () = locked (fun () -> Hashtbl.length table)

let binds () = !n_binds
let slot_misses () = !n_misses
let evictions () = !n_evictions

let check_invariants () =
  locked (fun () ->
      if Hashtbl.length slots > !hw_cap then
        failwith
          (Printf.sprintf "Vpkey: %d slots bound, cap %d"
             (Hashtbl.length slots) !hw_cap);
      Hashtbl.iter
        (fun k vk ->
          (match vk.hw with
           | Some k' when k' = k -> ()
           | _ ->
             failwith
               (Printf.sprintf "Vpkey: slot %d occupant vkey%d points at %s"
                  k vk.id
                  (match vk.hw with
                   | None -> "nothing"
                   | Some k' -> Printf.sprintf "slot %d" k')));
          if not (Hashtbl.mem table vk.id) then
            failwith (Printf.sprintf "Vpkey: slot %d holds dead vkey%d" k vk.id);
          match !quarantine with
          | Some q when q = k -> failwith "Vpkey: quarantine key used as a slot"
          | _ -> ())
        slots)

let reset () =
  locked (fun () ->
      let free_hw k = try Pkey.free k with Invalid_argument _ -> () in
      Hashtbl.iter (fun k _ -> free_hw k) slots;
      List.iter free_hw !pool;
      (match !quarantine with Some k -> free_hw k | None -> ());
      Hashtbl.reset table;
      Hashtbl.reset slots;
      pool := [];
      quarantine := None;
      hw_cap := default_hw_cap;
      next_id := 1;
      clock := 0;
      n_binds := 0;
      n_misses := 0;
      n_evictions := 0);
  Tls.get shadow_key := []
