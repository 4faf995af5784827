(** Protection keys: PKU associates one of 16 keys with each page.
    Key 0 is the conventional "unrestricted" key; keys 1-15 are
    allocatable, mirroring [pkey_alloc(2)]. Each {!Machine} has its own
    16 keys. *)

type t = int

val count : int
(** 16. *)

val default : t
(** Key 0. *)

exception Out_of_keys

val alloc : unit -> t
(** A fresh key in 1..15 of the current machine.
    @raise Out_of_keys when all are taken. *)

val free : t -> unit
(** @raise Invalid_argument if the key is out of range {e or not
    currently allocated} — a silent double-free would hand an already
    recycled key back to the pool, merging two protection domains. *)

val is_valid : t -> bool

val pp : Format.formatter -> t -> unit
