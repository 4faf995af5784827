(** memcached's slab allocator, for the baseline build.

    1 MiB pages are carved into fixed-size chunks; chunk sizes grow
    geometrically (factor 1.25 from 96 bytes, like memcached's default
    [-f 1.25]). Each page belongs to one class; freed chunks go on the
    class's free list. This is the ~1600 lines the paper deletes in
    favour of Ralloc — reproduced here so the baseline is faithful.

    Slab metadata (free lists, page map) is ordinary process-private
    state, as in memcached. A single lock protects it, as memcached's
    slabs_lock does; the store's per-item locks keep it mostly cold. *)

let page_size = 1 lsl 20

let base = 64 (* offset 0 is the null sentinel; waste a cache line *)

let chunk_sizes =
  let rec build acc sz =
    if sz >= page_size then List.rev (page_size :: acc)
    else build (sz :: acc) ((sz * 5 / 4 + 7) land lnot 7)
  in
  Array.of_list (build [] 96)

let n_classes = Array.length chunk_sizes

let class_of_size size =
  let rec go i =
    if i >= n_classes then -1
    else if chunk_sizes.(i) >= size then i
    else go (i + 1)
  in
  go 0

(* page_class markers beyond real class indices. *)
let cls_unassigned = -1

let cls_big_head = -2

let cls_big_cont = -3

type t = {
  arena : Private_memory.t;
  lock : Mutex.t;
  free_lists : int list ref array;
  mutable page_class : int array;  (** page index -> class or marker *)
  mutable n_pages : int;
  mutable free_pages : int list;  (** indices released by big frees *)
  partial : (int * int) option array;
  (** per class: (page base, next uncarved chunk index) *)
  big_sizes : (int, int * int) Hashtbl.t;  (** off -> (pages, size) *)
  mutable used : int;  (** allocated chunk bytes *)
  mem_limit : int;
}

let create ~arena ~mem_limit =
  { arena; lock = Mutex.create ();
    free_lists = Array.init n_classes (fun _ -> ref []);
    page_class = Array.make 64 cls_unassigned; n_pages = 0; free_pages = [];
    partial = Array.make n_classes None; big_sizes = Hashtbl.create 8;
    used = 0; mem_limit }

let page_of_off off = (off - base) / page_size

let grow_page_map t idx =
  if idx >= Array.length t.page_class then begin
    let m = Array.make (2 * (idx + 1)) (-1) in
    Array.blit t.page_class 0 m 0 (Array.length t.page_class);
    t.page_class <- m
  end

let new_page t c =
  if (t.n_pages + 1) * page_size > t.mem_limit then None
  else begin
    let idx = t.n_pages in
    t.n_pages <- idx + 1;
    grow_page_map t idx;
    t.page_class.(idx) <- c;
    let page_base = base + (idx * page_size) in
    Private_memory.ensure t.arena (page_base + page_size);
    Some page_base
  end

(* Structural allocations above the largest chunk size (the hash
   table, which memcached callocs outside the slab machinery): take a
   run of whole pages. *)
let big_alloc t size =
  let n = (size + page_size - 1) / page_size in
  if (t.n_pages + n) * page_size > t.mem_limit then 0
  else begin
    let idx = t.n_pages in
    t.n_pages <- idx + n;
    grow_page_map t (t.n_pages - 1);
    t.page_class.(idx) <- cls_big_head;
    for j = 1 to n - 1 do
      t.page_class.(idx + j) <- cls_big_cont
    done;
    let off = base + (idx * page_size) in
    Private_memory.ensure t.arena (off + (n * page_size));
    Hashtbl.replace t.big_sizes off (n, size);
    t.used <- t.used + size;
    off
  end

let alloc_block t size =
  let c = class_of_size size in
  if c < 0 then begin
    Mutex.lock t.lock;
    let off = big_alloc t size in
    Mutex.unlock t.lock;
    off
  end
  else begin
    Mutex.lock t.lock;
    let sz = chunk_sizes.(c) in
    let off =
      match !(t.free_lists.(c)) with
      | off :: rest ->
        t.free_lists.(c) := rest;
        off
      | [] ->
        let carve page_base next =
          let off = page_base + (next * sz) in
          if (next + 2) * sz <= page_size then
            t.partial.(c) <- Some (page_base, next + 1)
          else t.partial.(c) <- None;
          off
        in
        (match t.partial.(c) with
         | Some (page_base, next) -> carve page_base next
         | None ->
           (match new_page t c with
            | Some page_base -> carve page_base 0
            | None -> 0))
    in
    if off <> 0 then t.used <- t.used + sz;
    Mutex.unlock t.lock;
    off
  end

let free t off =
  Mutex.lock t.lock;
  let page = page_of_off off in
  let c = t.page_class.(page) in
  if c >= 0 then begin
    t.free_lists.(c) := off :: !(t.free_lists.(c));
    t.used <- t.used - chunk_sizes.(c);
    Mutex.unlock t.lock
  end
  else if c = cls_big_head then begin
    let n, size = Hashtbl.find t.big_sizes off in
    Hashtbl.remove t.big_sizes off;
    for j = 0 to n - 1 do
      t.page_class.(page + j) <- cls_unassigned
    done;
    (* The run is reusable only for future big allocations at the same
       spot; small classes draw fresh pages. Good enough for a store
       that frees its table at most on resize. *)
    t.used <- t.used - size;
    Mutex.unlock t.lock
  end
  else begin
    Mutex.unlock t.lock;
    invalid_arg "Slab.free: offset not in any slab page"
  end

let alloc t size =
  let off = alloc_block t size in
  (off, Platform.Cost_model.alloc_cost size)

let usable_size t off =
  let c = t.page_class.(page_of_off off) in
  if c >= 0 then chunk_sizes.(c)
  else if c = cls_big_head then snd (Hashtbl.find t.big_sizes off)
  else invalid_arg "Slab.usable_size"

let used_bytes t = t.used

let capacity t = t.mem_limit

let class_of_off t off = t.page_class.(page_of_off off)

let class_kvs t =
  Mutex.lock t.lock;
  let acc = ref [] in
  for c = n_classes - 1 downto 0 do
    let pages = ref 0 in
    for p = 0 to t.n_pages - 1 do
      if t.page_class.(p) = c then incr pages
    done;
    if !pages > 0 || !(t.free_lists.(c)) <> [] then
      acc :=
        (Printf.sprintf "%d:chunk_size" c, string_of_int chunk_sizes.(c))
        :: (Printf.sprintf "%d:total_pages" c, string_of_int !pages)
        :: (Printf.sprintf "%d:free_chunks" c,
            string_of_int (List.length !(t.free_lists.(c))))
        :: !acc
  done;
  Mutex.unlock t.lock;
  !acc
