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

(* One machine's slot table, guarded by [lock]. The counters are
   monotonic (telemetry mirrors them, but the bench needs them with
   TELEMETRY=off too). *)
type state = {
  lock : Mutex.t;
  table : (int, vk) Hashtbl.t;
  slots : (Pkey.t, vk) Hashtbl.t;
  mutable pool : Pkey.t list;  (* hw keys we own, currently free *)
  mutable quarantine : Pkey.t option;
  mutable hw_cap : int;
  mutable next_id : int;
  mutable clock : int;
  mutable n_binds : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

let fresh () =
  { lock = Mutex.create (); table = Hashtbl.create 64;
    slots = Hashtbl.create 16; pool = []; quarantine = None;
    hw_cap = default_hw_cap; next_id = 1; clock = 0; n_binds = 0;
    n_misses = 0; n_evictions = 0 }

let state_key = Machine.new_key fresh

let locked f =
  let st = Machine.get state_key in
  Mutex.protect st.lock (fun () -> f st)

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
  match locked (fun st -> f st walked) with
  | v -> charge_retags walked; v
  | exception e -> charge_retags walked; raise e

let retag walked vk k =
  walked := !walked + List.length vk.retags;
  List.iter (fun f -> f k) vk.retags

let find_locked st id =
  match Hashtbl.find_opt st.table id with
  | Some vk -> vk
  | None -> raise (Unknown_vkey id)

let quarantine_locked st =
  match st.quarantine with
  | Some k -> k
  | None ->
    let k = Pkey.alloc () in
    st.quarantine <- Some k;
    k

(* Pick the least-recently-bound vkey, quarantine its ranges, and hand
   its slot to the caller. *)
let evict_one_locked st walked =
  if not (Defenses.on Vkey_eviction) then raise Pkey.Out_of_keys;
  let victim =
    Hashtbl.fold
      (fun _ vk best ->
        match best with
        | Some b when b.last_use <= vk.last_use -> best
        | _ -> Some vk)
      st.slots None
  in
  match victim with
  | None -> raise Pkey.Out_of_keys (* cap 0 and empty pool: impossible *)
  | Some vk ->
    let k = match vk.hw with Some k -> k | None -> assert false in
    Hashtbl.remove st.slots k;
    vk.hw <- None;
    if Defenses.on Vkey_quarantine then retag walked vk (quarantine_locked st);
    st.n_evictions <- st.n_evictions + 1;
    Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_evictions;
    k

let acquire_slot_locked st walked =
  match st.pool with
  | k :: rest -> st.pool <- rest; k
  | [] ->
    if Hashtbl.length st.slots < st.hw_cap then
      (try Pkey.alloc () with Pkey.Out_of_keys -> evict_one_locked st walked)
    else evict_one_locked st walked

let bind_locked st walked vk =
  st.clock <- st.clock + 1;
  vk.last_use <- st.clock;
  st.n_binds <- st.n_binds + 1;
  Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_binds;
  match vk.hw with
  | Some k -> k
  | None ->
    st.n_misses <- st.n_misses + 1;
    Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_slot_misses;
    let k = acquire_slot_locked st walked in
    vk.hw <- Some k;
    Hashtbl.replace st.slots k vk;
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
  locked (fun st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      Hashtbl.replace st.table id
        { id; owner; hw = None; last_use = 0; retags = [] };
      id)

let restore ~id ~owner =
  locked (fun st ->
      if not (Hashtbl.mem st.table id) then
        Hashtbl.replace st.table id
          { id; owner; hw = None; last_use = 0; retags = [] };
      if id >= st.next_id then st.next_id <- id + 1)

let free id =
  retagging (fun st walked ->
      let vk = find_locked st id in
      (match vk.hw with
       | Some k ->
         Hashtbl.remove st.slots k;
         vk.hw <- None;
         st.pool <- k :: st.pool
       | None -> ());
      (* the id is dead; its memory must not stay readable under a
         recycled slot *)
      if vk.retags <> [] then retag walked vk (quarantine_locked st);
      Hashtbl.remove st.table id)

let bind ?owner id =
  retagging (fun st walked ->
      let vk = find_locked st id in
      check_owner vk owner;
      bind_locked st walked vk)

let hw_key id = locked (fun st -> (find_locked st id).hw)

let owner_of id = locked (fun st -> (find_locked st id).owner)

let attach_retag id f =
  locked (fun st ->
      let vk = find_locked st id in
      vk.retags <- f :: vk.retags;
      (* apply the current mapping right away: bound -> the live slot,
         unbound -> quarantined until the next bind *)
      match vk.hw with
      | Some k -> f k
      | None -> f (quarantine_locked st))

let quarantine_key () = locked quarantine_locked

(* ---- per-thread pkru shadow ----------------------------------------- *)

(* (vkey id, hw slot at grant time) for every vkey this thread has
   enabled on the slot table [owner]. The slot table can move bindings
   underneath us; crossings call [sync_thread] to reconcile. A thread
   that meets another table (a fresh machine, or the table rebuilt
   after {!bookkeeper_died}) starts with no grants there. *)
type shadow = { mutable owner : state; mutable grants : (int * Pkey.t) list }

let shadow_key : shadow Tls.key =
  Tls.new_key (fun () -> { owner = Machine.get state_key; grants = [] })

let shadow () =
  let s = Tls.get shadow_key and st = Machine.get state_key in
  if s.owner != st then (s.owner <- st; s.grants <- []);
  s

let enable ?owner id =
  let k = bind ?owner id in
  Pkru.wrpkru (Pkru.set_perm (Pkru.read ()) k Pkru.Enable);
  let s = shadow () in
  s.grants <- (id, k) :: List.remove_assoc id s.grants;
  k

let disable id =
  let s = shadow () in
  match List.assoc_opt id s.grants with
  | None -> ()
  | Some k ->
    s.grants <- List.remove_assoc id s.grants;
    if not (List.exists (fun (_, k') -> k' = k) s.grants) then
      Pkru.wrpkru (Pkru.set_perm (Pkru.read ()) k Pkru.Access_disable)

let sync_thread () =
  match (Tls.get shadow_key).grants with
  | [] -> ()
  | _ ->
    let s = shadow () in
    let entries = s.grants in
    (* Re-derive each grant from the slot table: dead vkeys drop, moved
       vkeys re-bind (no ownership check — the thread held the grant). *)
    let survivors =
      retagging (fun st walked ->
          List.filter_map
            (fun (id, k) ->
              match Hashtbl.find_opt st.table id with
              | None -> None
              | Some vk ->
                (match vk.hw with
                 | Some k' when k' = k -> Some (id, k)
                 | _ -> Some (id, bind_locked st walked vk)))
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
    s.grants <- survivors

(* ---- capacity / introspection --------------------------------------- *)

let set_hw_cap n = locked (fun st -> st.hw_cap <- max 1 (min 14 n))

let slots_in_use () = locked (fun st -> Hashtbl.length st.slots)

let live_vkeys () = locked (fun st -> Hashtbl.length st.table)

let binds () = (Machine.get state_key).n_binds
let slot_misses () = (Machine.get state_key).n_misses
let evictions () = (Machine.get state_key).n_evictions

let check_invariants () =
  locked (fun st ->
      if Hashtbl.length st.slots > st.hw_cap then
        failwith
          (Printf.sprintf "Vpkey: %d slots bound, cap %d"
             (Hashtbl.length st.slots) st.hw_cap);
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
          if not (Hashtbl.mem st.table vk.id) then
            failwith (Printf.sprintf "Vpkey: slot %d holds dead vkey%d" k vk.id);
          match st.quarantine with
          | Some q when q = k -> failwith "Vpkey: quarantine key used as a slot"
          | _ -> ())
        st.slots)

(* The slot table is the bookkeeping process's memory: when it dies,
   the kernel takes its hardware keys back and the table is gone.
   What survives is what was persisted (the tenant registry), which
   recovery replays through {!restore}. *)
let bookkeeper_died () =
  locked (fun st ->
      let free_hw k = try Pkey.free k with Invalid_argument _ -> () in
      Hashtbl.iter (fun k _ -> free_hw k) st.slots;
      List.iter free_hw st.pool;
      Option.iter free_hw st.quarantine;
      Machine.set state_key (fresh ()))
