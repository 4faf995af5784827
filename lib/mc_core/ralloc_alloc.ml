(** {!Memory_intf.ALLOCATOR} over a Ralloc heap: the protected-library
    store's allocator. An allocation is priced by the path that served
    it: a pop from the calling thread's cache is a pointer pop, and
    only a refill or a large block pays for shared allocator state. *)

type t = { heap : Ralloc.t }

let of_heap h = { heap = h }

let heap t = t.heap

let alloc t size =
  let module CM = Platform.Cost_model in
  match Ralloc.alloc_path t.heap size with
  | off, Ralloc.Cache -> (off, CM.current.alloc_cache_pop)
  | off, (Ralloc.Refill | Ralloc.Large) -> (off, CM.alloc_cost size)
  | exception Ralloc.Out_of_heap -> (0, CM.alloc_cost size)

let free t off = Ralloc.free t.heap off

let usable_size t off = Ralloc.usable_size t.heap off

let used_bytes t = Ralloc.used_bytes t.heap

let capacity t = Ralloc.capacity t.heap

let class_kvs (t : t) =
  let stats = Ralloc.class_stats t.heap in
  List.concat
    (List.filteri (fun _ s -> s.Ralloc.cs_superblocks > 0
                              || s.Ralloc.cs_cached_blocks > 0)
       (Array.to_list stats)
     |> List.map (fun s ->
       let c = Printf.sprintf "%d" s.Ralloc.cs_block_size in
       [ (c ^ ":chunk_size", string_of_int s.Ralloc.cs_block_size);
         (c ^ ":superblocks", string_of_int s.Ralloc.cs_superblocks);
         (c ^ ":free_chunks",
          string_of_int (s.Ralloc.cs_free_blocks + s.Ralloc.cs_cached_blocks))
       ]))
