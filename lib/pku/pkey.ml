(** Protection keys (PKU associates one of 16 keys with each page).

    Key 0 is the conventional "unrestricted" key that tags ordinary
    memory; keys 1-15 are allocatable, mirroring Linux's
    [pkey_alloc(2)] interface. Which keys are taken is the kernel's
    business: each {!Machine} has its own table. *)

type t = int

let count = 16

let default : t = 0

exception Out_of_keys

type table = { allocated : bool array; lock : Mutex.t }

let table_key =
  Machine.new_key (fun () ->
    let allocated = Array.make count false in
    allocated.(0) <- true;
    { allocated; lock = Mutex.create () })

(* pkey_alloc(2), pkey_free(2) and pkey_mprotect(2) are real
   syscalls, so the machine's seccomp-style gate (installed by
   Simos.Process, which keeps the arrow pointing simos -> pku) sees
   them. *)
let alloc () : t =
  Machine.syscall_gate () `Alloc;
  let { allocated; lock } = Machine.get table_key in
  let rec find i =
    if i >= count then raise Out_of_keys
    else if allocated.(i) then find (i + 1)
    else (allocated.(i) <- true; i)
  in
  Mutex.protect lock (fun () -> find 1)

(* Freeing a key that is not allocated is refused: the old silent
   version let a double-[free] release a key that had already been
   recycled to another library, silently merging two protection
   domains (the double-admission attack in lib/redteam). *)
let free (k : t) =
  if k <= 0 || k >= count then invalid_arg "Pkey.free";
  Machine.syscall_gate () `Free;
  let { allocated; lock } = Machine.get table_key in
  Mutex.lock lock;
  let was = allocated.(k) in
  allocated.(k) <- false;
  Mutex.unlock lock;
  if not was then
    invalid_arg (Printf.sprintf "Pkey.free: pkey%d is not allocated" k)

let is_valid (k : t) = k >= 0 && k < count

let pp fmt (k : t) = Format.fprintf fmt "pkey%d" k
