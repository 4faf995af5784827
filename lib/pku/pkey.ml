(** Protection keys (PKU associates one of 16 keys with each page).

    Key 0 is the conventional "unrestricted" key that tags ordinary
    memory; keys 1-15 are allocatable, mirroring Linux's
    [pkey_alloc(2)] interface. *)

type t = int

let count = 16

let default : t = 0

exception Out_of_keys

let allocated = Array.make count false

let () = allocated.(0) <- true

let alloc_lock = Mutex.create ()

(* Syscall gate, installed by Simos.Process at startup: pkey_alloc(2),
   pkey_free(2) and pkey_mprotect(2) are real syscalls, so a
   seccomp-style filter must see them. A hook (rather than a direct
   call) keeps the dependency arrow pointing simos -> pku. *)
let syscall_gate = ref (fun (_ : [ `Alloc | `Free | `Mprotect ]) -> ())

let set_syscall_gate f = syscall_gate := f

let gate sc = !syscall_gate sc

let alloc () : t =
  gate `Alloc;
  Mutex.lock alloc_lock;
  let rec find i =
    if i >= count then begin
      Mutex.unlock alloc_lock;
      raise Out_of_keys
    end
    else if not allocated.(i) then begin
      allocated.(i) <- true;
      Mutex.unlock alloc_lock;
      i
    end
    else find (i + 1)
  in
  find 1

(* Freeing a key that is not allocated is refused: the old silent
   version let a double-[free] release a key that had already been
   recycled to another library, silently merging two protection
   domains (the double-admission attack in lib/redteam). *)
let free (k : t) =
  if k <= 0 || k >= count then invalid_arg "Pkey.free";
  gate `Free;
  Mutex.lock alloc_lock;
  let was = allocated.(k) in
  allocated.(k) <- false;
  Mutex.unlock alloc_lock;
  if not was then
    invalid_arg (Printf.sprintf "Pkey.free: pkey%d is not allocated" k)

let is_valid (k : t) = k >= 0 && k < count

let pp fmt (k : t) = Format.fprintf fmt "pkey%d" k
