(** Virtual pkeys: an unbounded key space multiplexed onto the 16
    hardware slots with LRU eviction, quarantine re-tagging and grant
    windows — see vpkey.mli for the protocol and the trust model. *)

type t = int

exception Unknown_vkey of int

exception Permission_denied of string

exception All_slots_pinned

type vk = {
  id : int;
  owner : int;
  mutable hw : Pkey.t option;  (* the slot currently backing us *)
  mutable last_use : int;      (* LRU stamp (bind ticks) *)
  mutable retags : (Pkey.t -> unit) list;
  mutable pins : int;          (* open grant windows; never a victim *)
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
  mutable n_pin_refusals : int;
}

let fresh () =
  { lock = Mutex.create (); table = Hashtbl.create 64;
    slots = Hashtbl.create 16; pool = []; quarantine = None;
    hw_cap = default_hw_cap; next_id = 1; clock = 0; n_binds = 0;
    n_misses = 0; n_evictions = 0; n_pin_refusals = 0 }

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

(* Pick the least-recently-bound unpinned vkey, quarantine its ranges,
   and hand its slot to the caller. A pinned vkey has a grant window
   open on some thread, whose pkru enables its slot: handing that slot
   on would open the next vkey's memory to the window. *)
let evict_one_locked st walked =
  if not (Defenses.on Vkey_eviction) then raise Pkey.Out_of_keys;
  let victim =
    Hashtbl.fold
      (fun _ vk best ->
        match best with
        | _ when vk.pins > 0 -> best
        | Some b when b.last_use <= vk.last_use -> best
        | _ -> Some vk)
      st.slots None
  in
  match victim with
  | None when Hashtbl.length st.slots = 0 ->
    raise Pkey.Out_of_keys (* the machine has no hw key left to give *)
  | None ->
    st.n_pin_refusals <- st.n_pin_refusals + 1;
    Telemetry.Counters.incr Telemetry.Counters.Id.vpkey_pin_refusals;
    raise All_slots_pinned
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
        { id; owner; hw = None; last_use = 0; retags = []; pins = 0 };
      id)

let restore ~id ~owner =
  locked (fun st ->
      if not (Hashtbl.mem st.table id) then
        Hashtbl.replace st.table id
          { id; owner; hw = None; last_use = 0; retags = []; pins = 0 };
      if id >= st.next_id then st.next_id <- id + 1)

(* A freed vkey's slot goes back to the pool once no window holds it. *)
let release_locked st vk =
  match vk.hw with
  | Some k when vk.pins = 0 && not (Hashtbl.mem st.table vk.id) ->
    Hashtbl.remove st.slots k;
    vk.hw <- None;
    st.pool <- k :: st.pool
  | Some _ | None -> ()

let free id =
  retagging (fun st walked ->
      let vk = find_locked st id in
      (* the id is dead; its memory must not stay readable under a
         recycled slot *)
      if vk.retags <> [] then retag walked vk (quarantine_locked st);
      Hashtbl.remove st.table id;
      release_locked st vk)

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

(* ---- grant windows ------------------------------------------------- *)

(* The calling thread's open windows, innermost first. A thread killed
   inside a window never runs its exit; {!thread_died} drops them. *)
let windows_key : (state * vk) list ref Tls.key = Tls.new_key (fun () -> ref [])

let unpin st vk =
  Mutex.lock st.lock;
  vk.pins <- vk.pins - 1;
  release_locked st vk;
  Mutex.unlock st.lock

(* The window's bind pins the vkey and records the window under the
   same lock, so no other bind can take the slot before the wrpkru and
   a kill during the re-tag charge still finds the pin. The exit
   restores the pkru saved at entry, then unpins; a vkey freed inside
   the window gives its slot back there. *)
let with_grant ?owner id f =
  let windows = Tls.get windows_key in
  let st, vk, k =
    retagging (fun st walked ->
        let vk = find_locked st id in
        check_owner vk owner;
        let k = bind_locked st walked vk in
        vk.pins <- vk.pins + 1;
        windows := (st, vk) :: !windows;
        (st, vk, k))
  in
  let saved = Pkru.read () in
  let close () =
    Pkru.wrpkru saved;
    windows := List.tl !windows;
    unpin st vk
  in
  match
    Pkru.wrpkru (Pkru.set_perm saved k Pkru.Enable);
    f k
  with
  | v -> close (); v
  | exception e -> close (); raise e

let thread_died () =
  let windows = Tls.get windows_key in
  List.iter (fun (st, vk) -> unpin st vk) !windows;
  windows := []

(* ---- capacity / introspection --------------------------------------- *)

let set_hw_cap n = locked (fun st -> st.hw_cap <- max 1 (min 14 n))

let slots_in_use () = locked (fun st -> Hashtbl.length st.slots)

let live_vkeys () = locked (fun st -> Hashtbl.length st.table)

let binds () = (Machine.get state_key).n_binds
let slot_misses () = (Machine.get state_key).n_misses
let evictions () = (Machine.get state_key).n_evictions
let pin_refusals () = (Machine.get state_key).n_pin_refusals

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
          if vk.pins = 0 && not (Hashtbl.mem st.table vk.id) then
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
