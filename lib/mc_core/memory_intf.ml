(** The two capability signatures the store is generic over.

    The protected-library build instantiates them with
    {!Shared_memory} (a {!Shm.Region} with self-relative pptrs) and
    {!Ralloc_alloc}; the baseline server uses {!Private_memory} (a
    process-private arena with absolute pointers) and {!Slab}
    (memcached's own slab allocator, which the paper deletes). *)

module type MEMORY = sig
  type t

  val read_u8 : t -> int -> int
  val write_u8 : t -> int -> int -> unit
  val read_i32 : t -> int -> int
  val write_i32 : t -> int -> int -> unit
  val read_i64 : t -> int -> int
  val write_i64 : t -> int -> int -> unit

  val read_i64_raw : t -> int -> int64
  (** Full 64-bit read. [read_i64] round-trips through the native
      63-bit int, which silently drops the top bit — unsigned fields
      (the CAS counter) must use the raw variants. *)

  val write_i64_raw : t -> int -> int64 -> unit

  val load_ptr : t -> at:int -> int
  (** Read the pointer cell at [at]: target offset, or [0] for null.
      Position independent in the shared implementation. *)

  val store_ptr : t -> at:int -> int -> unit

  val read_string : t -> off:int -> len:int -> string
  val write_string : t -> off:int -> string -> unit

  val equal_string : t -> off:int -> len:int -> string -> bool
  (** Compare a memory range to a string without copying. *)
end

module type ALLOCATOR = sig
  type t

  val alloc : t -> int -> int * int
  (** Offset of a block of at least the requested size, or [0] when
      storage is exhausted (the store then evicts and retries), with
      the modeled CPU cost (ns) of the path that served it. The store
      charges that cost to the virtual clock after the call. *)

  val free : t -> int -> unit

  val usable_size : t -> int -> int

  val used_bytes : t -> int

  val capacity : t -> int

  val class_kvs : t -> (string * string) list
  (** Per-size-class occupancy in `stats slabs` shape:
      ["<class>:chunk_size"], ["<class>:free_chunks"], ... — only
      classes with any footprint appear. *)
end
