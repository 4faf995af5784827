(** memcached's slab allocator, for the baseline build: 1 MiB pages
    carved into geometrically growing chunk classes (factor 1.25 from
    96 B), per-class free lists, one lock — the ~1600 lines the paper
    deletes in favour of Ralloc. *)

type t

val page_size : int

val chunk_sizes : int array

val n_classes : int

val class_of_size : int -> int
(** Class index serving [size], or [-1] beyond the largest chunk
    (such requests take whole-page "big" allocations in {!alloc}). *)

val create : arena:Private_memory.t -> mem_limit:int -> t

val alloc : t -> int -> int * int
(** Arena offset of a chunk (or page run, for sizes beyond the largest
    class), or [0] when [mem_limit] is reached, with its modeled cost:
    {!Platform.Cost_model.alloc_cost} on every path, since every slab
    allocation takes the one lock. *)

val free : t -> int -> unit

val usable_size : t -> int -> int

val used_bytes : t -> int

val capacity : t -> int

val class_of_off : t -> int -> int
(** Class owning the page that contains [off] (markers < 0 for big
    allocations). *)

val class_kvs : t -> (string * string) list
(** Per-class occupancy for `stats slabs`: [<class>:chunk_size],
    [<class>:total_pages], [<class>:free_chunks]. *)
