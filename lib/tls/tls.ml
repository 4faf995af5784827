(* Key ids are dense (handed out by one counter), so a table is an
   array indexed by key id, grown on demand. A slot no thread has
   written holds [unset]: a private block no stored value can be
   physically equal to. A thread's table also names the machine the
   thread runs under; a machine keeps its own state in a table that
   runs under itself. *)
type table = { mutable slots : Obj.t array; mutable machine : machine }

and machine = {
  state : table;
  mutable syscall_gate : [ `Alloc | `Free | `Mprotect ] -> unit;
}

type 'a key = { id : int; init : unit -> 'a }

let next_key_id = Atomic.make 0

let new_key init = { id = Atomic.fetch_and_add next_key_id 1; init }

let unset : Obj.t = Obj.repr (ref ())

let new_machine syscall_gate =
  let rec m =
    { state = { slots = Array.make 8 unset; machine = m }; syscall_gate }
  in
  m

let default_machine = new_machine ignore

let table_under machine = { slots = Array.make 8 unset; machine }

(* Default provider: one table per OS thread. Thread ids can be reused
   after a thread exits; a recycled id simply inherits a stale table,
   which is indistinguishable from a fresh one once every key's [init]
   is idempotent (they all are: keys hold no cross-thread state). *)
let default_tables : (int, table) Hashtbl.t = Hashtbl.create 64

let default_tables_lock = Mutex.create ()

let default_provider () =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock default_tables_lock;
  let tbl =
    match Hashtbl.find_opt default_tables tid with
    | Some t -> t
    | None ->
      let t = table_under default_machine in
      Hashtbl.add default_tables tid t;
      t
  in
  Mutex.unlock default_tables_lock;
  tbl

let provider : (unit -> table) option ref = ref None

let current_table () =
  match !provider with Some p -> p () | None -> default_provider ()

let fresh_table () = table_under (current_table ()).machine

let install_provider p = provider := Some p

let remove_provider () = provider := None

let provider_installed () = Option.is_some !provider

let store tbl id v =
  let n = Array.length tbl.slots in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) unset in
    Array.blit tbl.slots 0 grown 0 n;
    tbl.slots <- grown
  end;
  tbl.slots.(id) <- v

let[@inline] find tbl (k : 'a key) : 'a =
  let slots = tbl.slots in
  if k.id < Array.length slots && slots.(k.id) != unset then
    (Obj.obj slots.(k.id) : 'a)
  else begin
    (* [init] may itself read other keys and grow the table: store
       into whatever array the table holds afterwards *)
    let v = k.init () in
    store tbl k.id (Obj.repr v);
    v
  end

let get k = find (current_table ()) k

let set (k : 'a key) (v : 'a) = store (current_table ()) k.id (Obj.repr v)

let clear (k : 'a key) =
  let tbl = current_table () in
  if k.id < Array.length tbl.slots then tbl.slots.(k.id) <- unset

module Machine = struct
  type t = machine

  type nonrec 'a key = 'a key

  let new_key = new_key

  let current () = (current_table ()).machine

  let create () = new_machine (current ()).syscall_gate

  let get k = find (current ()).state k

  let set (k : 'a key) (v : 'a) = store (current ()).state k.id (Obj.repr v)

  let run m f =
    let tbl = current_table () in
    let prev = tbl.machine in
    tbl.machine <- m;
    Fun.protect ~finally:(fun () -> tbl.machine <- prev) f

  let carry f =
    let m = current () in
    fun () -> (current_table ()).machine <- m; f ()

  let syscall_gate () = (current ()).syscall_gate

  let set_syscall_gate g = (current ()).syscall_gate <- g
end
