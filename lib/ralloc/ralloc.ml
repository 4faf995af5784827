module Region = Shm.Region

exception Out_of_heap

let superblock_size = 65536

let sb_hdr = 128

let root_slots = 64

(* LRMalloc's (and jemalloc's) geometry: a 16 B quantum up to 128,
   then four classes per doubling, each a quarter of the doubling's
   base apart — 160, 192, 224, 256, 320, … 12288, 14336, 16384. A
   block is never more than 25% larger than the request it serves
   above 128 B. *)
let size_classes =
  let quantum = 16 and tiny = 8 and doublings = 7 in
  Array.init (tiny + (4 * doublings)) (fun i ->
    if i < tiny then quantum * (i + 1)
    else
      let base = (quantum * tiny) lsl ((i - tiny) / 4) in
      base + ((((i - tiny) mod 4) + 1) * (base / 4)))

let n_classes = Array.length size_classes

let max_small = size_classes.(n_classes - 1)

let class_of_size size =
  let rec go i =
    if i >= n_classes then n_classes
    else if size_classes.(i) >= size then i
    else go (i + 1)
  in
  go 0

(* ---- Heap header layout (region offsets) ---------------------------

   0   magic              40  used_bytes (stored at flush)
   8   sb_size            48  free_sb_head (absolute sb offset, 0 none)
   16  sb_base            64  root pptrs       (64 x 8)
   24  sb_count           576 class partial heads (n_classes x 8,
   32  next_fresh_sb          absolute; 864 end with 36 classes)

   Superblock header layout (offsets within the superblock):

   0   kind (0 free / 1 small / 2 large head)
   8   class_idx          56  next_partial (absolute, 0 none)
   16  block_size         64  on_partial (0/1)
   24  num_blocks         72  large_sbs
   32  free_head          80  large_size
   40  free_count         88  next_free_sb (absolute, 0 none)
   48  bump_idx           96  prev_partial (absolute, 0 none)
   ------------------------------------------------------------------- *)

(* The class table is part of the on-heap format (superblock headers
   record class indices), so a new table takes a new magic. *)
let magic = 0x52414C4C4F433032 (* "RALLOC02" *)

let off_magic = 0
let off_sb_size = 8
let off_sb_base = 16
let off_sb_count = 24
let off_next_fresh = 32
let off_used = 40
let off_free_sb_head = 48
let off_roots = 64
let off_partial_heads = 576

let partial_head_off c = off_partial_heads + (8 * c)

let sb_base = 4096

let () =
  if off_partial_heads + (8 * n_classes) > sb_base then
    failwith "Ralloc: class partial heads overrun the heap header"

let f_kind = 0
let f_class = 8
let f_block_size = 16
let f_num_blocks = 24
let f_free_head = 32
let f_free_count = 40
let f_bump = 48
let f_next_partial = 56
let f_on_partial = 64
let f_large_sbs = 72
let f_large_size = 80
let f_next_free_sb = 88
let f_prev_partial = 96

let kind_free = 0
let kind_small = 1
let kind_large_head = 2

(* A large block's data area starts at [head + sb_hdr] and runs
   straight through the following superblocks of its run — their 128
   header bytes are part of the data and hold no metadata at all. Every
   walk over superblocks must therefore step {e structurally}: on a
   large head, skip [f_large_sbs] superblocks instead of trusting
   per-superblock kind markers, which inside a run are user bytes. *)

module Pptr = struct
  let store r ~at target =
    if target = 0 then Region.write_i64 r at 0
    else Region.write_i64 r at (target - at)

  let load r ~at =
    let d = Region.read_i64 r at in
    if d = 0 then 0 else at + d

  let is_null r ~at = Region.read_i64 r at = 0
end

type t = {
  reg : Region.t;
  heap_id : int;
  class_locks : Mutex.t array;
  sb_lock : Mutex.t;
  used : int Atomic.t;
  mutable poison : Bytes.t option;
  (* use-after-free detector (opt-in): 1 bit per 8-byte granule, set
     while the granule belongs to a freed block *)
  mutable gen : int;
  (* bumped by {!recover}: per-thread caches stamped with an older
     generation are discarded, since recovery may have put their blocks
     back on the shared freelists *)
}

(* Runtime state must be shared by every handle attached to the same
   region: the class locks model PTHREAD_PROCESS_SHARED locks living in
   the shared segment. *)
let runtimes : (Region.t * t) list ref = ref []

let runtimes_lock = Mutex.create ()

let next_heap_id = Atomic.make 1

let find_runtime reg =
  Mutex.lock runtimes_lock;
  let r = List.find_opt (fun (r, _) -> r == reg) !runtimes in
  Mutex.unlock runtimes_lock;
  Option.map snd r

let new_runtime reg =
  Mutex.lock runtimes_lock;
  let t =
    match List.find_opt (fun (r, _) -> r == reg) !runtimes with
    | Some (_, t) -> t
    | None ->
      let t =
        { reg; heap_id = Atomic.fetch_and_add next_heap_id 1;
          class_locks = Array.init n_classes (fun _ -> Mutex.create ());
          sb_lock = Mutex.create (); used = Atomic.make 0; poison = None;
          gen = 0 }
      in
      runtimes := (reg, t) :: !runtimes;
      t
  in
  Mutex.unlock runtimes_lock;
  t

let region t = t.reg

let rd t off = Region.read_i64 t.reg off

let wr t off v = Region.write_i64 t.reg off v

let sb_count t = rd t off_sb_count

let sb_off t i = sb_base + (i * rd t off_sb_size)

let sb_of_block _t off =
  sb_base + ((off - sb_base) / superblock_size * superblock_size)

let capacity t = Region.size t.reg - sb_base

let used_bytes t = Atomic.get t.used

(* ---- Use-after-free poisoning (opt-in test harness) ------------------

   When enabled, [free] overwrites the block body with 0xDE and marks
   its 8-byte granules in a side bitmap; [alloc] clears the marks on
   the block it hands out. {!poison_guard} (called by the store's
   memory layer, never by the allocator's own metadata traffic — the
   freelist link legitimately reuses a freed block's first word) turns
   any access to a marked granule into {!Use_after_free}. *)

exception Use_after_free of string

let poison_byte = '\xDE'

(* How many heaps currently poison — lets the guard's common "nobody
   does" path be a single atomic load. *)
let n_poisoning = Atomic.make 0

let set_poisoning t on =
  match (t.poison, on) with
  | None, true ->
    t.poison <-
      Some (Bytes.make (((Region.size t.reg / 8) + 7) / 8) '\000');
    Atomic.incr n_poisoning
  | Some _, false ->
    t.poison <- None;
    Atomic.decr n_poisoning
  | _ -> ()

let poisoning t = t.poison <> None

(* Mark only granules fully inside the freed block (a block boundary
   always is granule-aligned for small classes; large sizes may end
   mid-granule and the tail granule stays unmarked). *)
let poison_free t off len =
  match t.poison with
  | None -> ()
  | Some bm ->
    Region.fill t.reg ~off ~len poison_byte;
    for g = (off + 7) / 8 to ((off + len) / 8) - 1 do
      Bytes.set_uint8 bm (g / 8)
        (Bytes.get_uint8 bm (g / 8) lor (1 lsl (g mod 8)))
    done

(* Clear every granule overlapping the block being handed out — also
   erases stale marks left from a previous life of the storage under a
   different block geometry. *)
let unpoison_alloc t off len =
  match t.poison with
  | None -> ()
  | Some bm ->
    for g = off / 8 to (off + len - 1) / 8 do
      Bytes.set_uint8 bm (g / 8)
        (Bytes.get_uint8 bm (g / 8) land lnot (1 lsl (g mod 8)))
    done

let poison_guard reg ~off ~len =
  if Atomic.get n_poisoning > 0 then
    (* Racy read of the runtimes list is fine: it is an immutable list
       behind a ref, and a stale snapshot only delays detection for a
       heap registered concurrently with this access. *)
    match List.find_opt (fun (r, _) -> r == reg) !runtimes with
    | Some (_, { poison = Some bm; _ }) ->
      let g1 = (off + max len 1 - 1) / 8 in
      for g = off / 8 to g1 do
        if Bytes.get_uint8 bm (g / 8) land (1 lsl (g mod 8)) <> 0 then
          raise
            (Use_after_free
               (Printf.sprintf
                  "use-after-free: access at off=%d len=%d touches freed \
                   heap block"
                  off len))
      done
    | _ -> ()

(* ---- Format and attach ---------------------------------------------- *)

let create reg =
  let t = new_runtime reg in
  Region.kernel_mode (fun () ->
    let count = (Region.size reg - sb_base) / superblock_size in
    if count < 1 then invalid_arg "Ralloc.create: region too small";
    wr t off_magic magic;
    wr t off_sb_size superblock_size;
    wr t off_sb_base sb_base;
    wr t off_sb_count count;
    wr t off_next_fresh 0;
    wr t off_used 0;
    wr t off_free_sb_head 0;
    for i = 0 to root_slots - 1 do
      wr t (off_roots + (8 * i)) 0
    done;
    for c = 0 to n_classes - 1 do
      wr t (partial_head_off c) 0
    done);
  t

let scan_used t =
  let total = ref 0 in
  let fresh = min (rd t off_next_fresh) (sb_count t) in
  let i = ref 0 in
  while !i < fresh do
    let sb = sb_off t !i in
    match rd t (sb + f_kind) with
    | k when k = kind_small ->
      let bs = rd t (sb + f_block_size) in
      let live = rd t (sb + f_bump) - rd t (sb + f_free_count) in
      total := !total + (live * bs);
      incr i
    | k when k = kind_large_head ->
      total := !total + rd t (sb + f_large_size);
      i := !i + max 1 (rd t (sb + f_large_sbs))
    | _ -> incr i
  done;
  !total

let attach reg =
  match find_runtime reg with
  | Some t -> t
  | None ->
    let t = new_runtime reg in
    Region.kernel_mode (fun () ->
      if rd t off_magic <> magic then
        failwith "Ralloc.attach: bad magic (not a formatted heap)";
      if rd t off_sb_size <> superblock_size then
        failwith "Ralloc.attach: superblock size mismatch";
      Atomic.set t.used (scan_used t));
    t

(* ---- Per-thread caches ----------------------------------------------- *)

let cache_refill = 16

let cache_flush_trigger = 48

let cache_keep = 16

type cache = int list ref array (* one free-block list per class *)

let caches_key : (int, int * cache) Hashtbl.t Tls.key =
  Tls.new_key (fun () -> Hashtbl.create 4)

(* Caches are stamped with the heap generation they were filled under;
   a recovery bumps the generation, so survivors of a crash silently
   drop caches whose blocks recovery may have reclaimed. *)
let my_cache t : cache =
  let tbl = Tls.get caches_key in
  match Hashtbl.find_opt tbl t.heap_id with
  | Some (g, c) when g = t.gen -> c
  | _ ->
    let c = Array.init n_classes (fun _ -> ref []) in
    Hashtbl.replace tbl t.heap_id (t.gen, c);
    c

(* ---- Partial-list management (under the class lock) ------------------ *)

let push_partial t c sb =
  let head = rd t (partial_head_off c) in
  wr t (sb + f_next_partial) head;
  wr t (sb + f_prev_partial) 0;
  if head <> 0 then wr t (head + f_prev_partial) sb;
  wr t (partial_head_off c) sb;
  wr t (sb + f_on_partial) 1

let unlink_partial t c sb =
  let next = rd t (sb + f_next_partial) in
  let prev = rd t (sb + f_prev_partial) in
  if prev <> 0 then wr t (prev + f_next_partial) next
  else wr t (partial_head_off c) next;
  if next <> 0 then wr t (next + f_prev_partial) prev;
  wr t (sb + f_next_partial) 0;
  wr t (sb + f_prev_partial) 0;
  wr t (sb + f_on_partial) 0

(* ---- Superblock pool (under sb_lock) ---------------------------------- *)

let push_free_sb t sb =
  wr t (sb + f_kind) kind_free;
  wr t (sb + f_next_free_sb) (rd t off_free_sb_head);
  wr t off_free_sb_head sb

(* Pop a free superblock: first the free list (skipping entries
   re-claimed by the large-allocation scan), then fresh storage. *)
let pop_free_sb t =
  let rec from_list () =
    let head = rd t off_free_sb_head in
    if head = 0 then None
    else begin
      wr t off_free_sb_head (rd t (head + f_next_free_sb));
      if rd t (head + f_kind) = kind_free then Some head else from_list ()
    end
  in
  match from_list () with
  | Some sb -> Some sb
  | None ->
    let fresh = rd t off_next_fresh in
    if fresh >= sb_count t then None
    else begin
      wr t off_next_fresh (fresh + 1);
      Some (sb_off t fresh)
    end

let grab_superblock t c =
  Mutex.lock t.sb_lock;
  let sb = pop_free_sb t in
  (match sb with
   | Some sb ->
     let bs = size_classes.(c) in
     wr t (sb + f_kind) kind_small;
     wr t (sb + f_class) c;
     wr t (sb + f_block_size) bs;
     wr t (sb + f_num_blocks) ((superblock_size - sb_hdr) / bs);
     wr t (sb + f_free_head) 0;
     wr t (sb + f_free_count) 0;
     wr t (sb + f_bump) 0;
     wr t (sb + f_next_partial) 0;
     wr t (sb + f_prev_partial) 0;
     wr t (sb + f_on_partial) 0
   | None -> ());
  Mutex.unlock t.sb_lock;
  sb

(* ---- Small allocation ------------------------------------------------- *)

(* Carve up to [want] blocks from [sb]'s freelist then bump area.
   Returns blocks carved; caller holds the class lock. *)
let carve t sb bs want =
  let got = ref [] in
  let n = ref 0 in
  let continue_ = ref true in
  while !n < want && !continue_ do
    let fh = rd t (sb + f_free_head) in
    if fh <> 0 then begin
      wr t (sb + f_free_head) (rd t (fh + 0));
      wr t (sb + f_free_count) (rd t (sb + f_free_count) - 1);
      got := fh :: !got;
      incr n
    end
    else begin
      let bump = rd t (sb + f_bump) in
      if bump < rd t (sb + f_num_blocks) then begin
        wr t (sb + f_bump) (bump + 1);
        got := (sb + sb_hdr + (bump * bs)) :: !got;
        incr n
      end
      else continue_ := false
    end
  done;
  !got

let refill_class t c want =
  let bs = size_classes.(c) in
  Mutex.lock t.class_locks.(c);
  let acc = ref [] in
  let missing () = want - List.length !acc in
  (* grab_superblock takes sb_lock while we hold the class lock; lock
     order is always class -> sb, so this cannot deadlock. *)
  let rec fill () =
    if missing () > 0 then begin
      let sb = rd t (partial_head_off c) in
      if sb <> 0 then begin
        let got = carve t sb bs (missing ()) in
        acc := got @ !acc;
        if missing () > 0 then begin
          (* Head exhausted; retire it from the partial list. *)
          unlink_partial t c sb;
          fill ()
        end
      end
      else
        match grab_superblock t c with
        | Some sb ->
          push_partial t c sb;
          fill ()
        | None -> ()
    end
  in
  fill ();
  let got_n = List.length !acc in
  if got_n > 0 then
    Atomic.set t.used (Atomic.get t.used + (got_n * bs));
  Mutex.unlock t.class_locks.(c);
  !acc

(* ---- Large allocation -------------------------------------------------- *)

let large_sbs_needed size = (size + sb_hdr + superblock_size - 1) / superblock_size

(* Unlink every superblock of the run [head, head + n*superblock_size)
   from the free-superblock list. Must happen {e before} the run is
   handed out as a large block: once user data covers the absorbed
   headers, their [f_next_free_sb] words are gone and a later
   {!pop_free_sb} would chase garbage. Caller holds [sb_lock]. *)
let unlink_free_run t head n =
  let lo = head and hi = head + (n * superblock_size) in
  let rec filter prev p =
    if p <> 0 then begin
      let next = rd t (p + f_next_free_sb) in
      if p >= lo && p < hi then begin
        if prev = 0 then wr t off_free_sb_head next
        else wr t (prev + f_next_free_sb) next;
        filter prev next
      end
      else filter p next
    end
  in
  filter 0 (rd t off_free_sb_head)

let alloc_large t size =
  let need = large_sbs_needed size in
  Mutex.lock t.sb_lock;
  let count = sb_count t in
  let head = ref 0 in
  (* Prefer fresh contiguous storage. *)
  let fresh = rd t off_next_fresh in
  if fresh + need <= count then begin
    wr t off_next_fresh (fresh + need);
    head := sb_off t fresh
  end
  else begin
    (* First-fit scan for a free run, stepping structurally so live
       large runs are never inspected in the middle. *)
    let run_start = ref 0 and run_len = ref 0 and i = ref 0 in
    while !head = 0 && !i < fresh do
      let sb = sb_off t !i in
      match rd t (sb + f_kind) with
      | k when k = kind_free ->
        if !run_len = 0 then run_start := !i;
        incr run_len;
        if !run_len = need then head := sb_off t !run_start;
        incr i
      | k when k = kind_large_head ->
        run_len := 0;
        i := !i + max 1 (rd t (sb + f_large_sbs))
      | _ ->
        run_len := 0;
        incr i
    done;
    if !head <> 0 then unlink_free_run t !head need
  end;
  if !head <> 0 then begin
    let h = !head in
    wr t (h + f_kind) kind_large_head;
    wr t (h + f_large_sbs) need;
    wr t (h + f_large_size) size;
    Atomic.set t.used (Atomic.get t.used + size)
  end;
  Mutex.unlock t.sb_lock;
  if !head = 0 then raise Out_of_heap
  else begin
    let off = !head + sb_hdr in
    unpoison_alloc t off size;
    off
  end

(* ---- Public alloc/free -------------------------------------------------- *)

type path = Cache | Refill | Large

let alloc_path t size =
  if size <= 0 then invalid_arg "Ralloc.alloc: size must be positive";
  Telemetry.Counters.incr Telemetry.Counters.Id.alloc_calls;
  Telemetry.Counters.add ~n:size Telemetry.Counters.Id.alloc_bytes;
  Telemetry.Probe.alloc ~bytes:size ~large:(size > max_small) @@ fun () ->
  if size > max_small then (alloc_large t size, Large)
  else begin
    let c = class_of_size size in
    let cache = (my_cache t).(c) in
    let off, path =
      match !cache with
      | off :: rest ->
        cache := rest;
        (off, Cache)
      | [] ->
        (match refill_class t c cache_refill with
         | [] -> raise Out_of_heap
         | off :: rest ->
           cache := rest;
           (off, Refill))
    in
    unpoison_alloc t off size_classes.(c);
    (off, path)
  end

let alloc t size = fst (alloc_path t size)

(* Return one block to its superblock; caller holds the class lock. *)
let return_block t c sb off =
  wr t (off + 0) (rd t (sb + f_free_head));
  wr t (sb + f_free_head) off;
  let fc = rd t (sb + f_free_count) + 1 in
  wr t (sb + f_free_count) fc;
  let bump = rd t (sb + f_bump) in
  if fc = bump && fc = rd t (sb + f_num_blocks) then begin
    (* Every carved block is back: release the superblock. *)
    if rd t (sb + f_on_partial) = 1 then unlink_partial t c sb;
    Mutex.lock t.sb_lock;
    push_free_sb t sb;
    Mutex.unlock t.sb_lock
  end
  else if rd t (sb + f_on_partial) = 0 then push_partial t c sb

let flush_blocks t c blocks =
  let bs = size_classes.(c) in
  Mutex.lock t.class_locks.(c);
  List.iter (fun off -> return_block t c (sb_of_block t off) off) blocks;
  Atomic.set t.used (Atomic.get t.used - (List.length blocks * bs));
  Mutex.unlock t.class_locks.(c)

let free_large t off =
  let sb = off - sb_hdr in
  Mutex.lock t.sb_lock;
  let n = rd t (sb + f_large_sbs) in
  let size = rd t (sb + f_large_size) in
  for j = n - 1 downto 0 do
    push_free_sb t (sb + (j * superblock_size))
  done;
  Atomic.set t.used (Atomic.get t.used - size);
  Mutex.unlock t.sb_lock

let free t off =
  if off < sb_base || off >= Region.size t.reg then
    invalid_arg "Ralloc.free: offset outside heap";
  Telemetry.Counters.incr Telemetry.Counters.Id.free_calls;
  Telemetry.Probe.free ~off @@ fun () ->
  let sb = sb_of_block t off in
  match rd t (sb + f_kind) with
  | k when k = kind_large_head ->
    if off <> sb + sb_hdr then invalid_arg "Ralloc.free: misaligned large block";
    let size = rd t (sb + f_large_size) in
    poison_free t off size;
    free_large t off;
    size
  | k when k = kind_small ->
    let c = rd t (sb + f_class) in
    poison_free t off size_classes.(c);
    let cache = (my_cache t).(c) in
    cache := off :: !cache;
    if List.length !cache > cache_flush_trigger then begin
      let rec split i acc = function
        | l when i = 0 -> (acc, l)
        | x :: rest -> split (i - 1) (x :: acc) rest
        | [] -> (acc, [])
      in
      let keep, spill = split cache_keep [] !cache in
      cache := keep;
      flush_blocks t c spill
    end;
    0
  | _ -> invalid_arg "Ralloc.free: block not allocated"

let usable_size t off =
  let sb = sb_of_block t off in
  match rd t (sb + f_kind) with
  | k when k = kind_small -> rd t (sb + f_block_size)
  | k when k = kind_large_head -> rd t (sb + f_large_size)
  | _ -> invalid_arg "Ralloc.usable_size: block not allocated"

let flush_thread_cache t =
  let cache = my_cache t in
  for c = 0 to n_classes - 1 do
    let blocks = !(cache.(c)) in
    if blocks <> [] then begin
      cache.(c) := [];
      flush_blocks t c blocks
    end
  done

(* ---- Roots -------------------------------------------------------------- *)

let root_off id =
  if id < 0 || id >= root_slots then invalid_arg "Ralloc: root id";
  off_roots + (8 * id)

let set_root t id off = Pptr.store t.reg ~at:(root_off id) off

let get_root t id = Pptr.load t.reg ~at:(root_off id)

(* ---- Persistence ---------------------------------------------------------- *)

let flush t ~path =
  Region.kernel_mode (fun () ->
    (* the cache flush touches the (possibly pkey-sealed) heap, and
       shutdown runs in the bookkeeping process's kernel-side path *)
    flush_thread_cache t;
    wr t off_used (Atomic.get t.used);
    Region.flush t.reg ~path)

(* ---- Post-crash recovery --------------------------------------------------

   Rebuild every piece of volatile allocator metadata from two inputs:
   the superblock headers (which crash points can never tear — the
   allocator's critical sections contain no scheduler sync points) and
   the caller-supplied set of reachable block offsets. Everything
   carved but not reachable is reclaimed: blocks sitting in a dead
   process's thread cache, and blocks in the allocated-but-not-yet-
   linked window of a call killed mid-flight. *)

let recover t ~live =
  Region.kernel_mode (fun () ->
    let fail fmt = Printf.ksprintf invalid_arg fmt in
    (* Survivors' caches may hold blocks that the rebuild below puts
       back on shared freelists; invalidate every cache at once. *)
    t.gen <- t.gen + 1;
    let fresh = min (rd t off_next_fresh) (sb_count t) in
    let carved_end = sb_off t fresh in
    let live_by_sb = Hashtbl.create 64 in
    List.iter
      (fun off ->
        if off < sb_base + sb_hdr || off >= carved_end then
          fail "Ralloc.recover: live offset %d outside carved heap" off;
        let sb = sb_of_block t off in
        Hashtbl.replace live_by_sb sb
          (off :: Option.value ~default:[] (Hashtbl.find_opt live_by_sb sb)))
      live;
    let free_sbs = ref [] in
    let i = ref 0 in
    while !i < fresh do
      let sb = sb_off t !i in
      let live_here =
        Option.value ~default:[] (Hashtbl.find_opt live_by_sb sb)
      in
      match rd t (sb + f_kind) with
      | k when k = kind_small ->
        let bs = rd t (sb + f_block_size) in
        let bump = rd t (sb + f_bump) in
        if live_here = [] then begin
          (* No reachable block: reclaim the whole superblock. *)
          poison_free t (sb + sb_hdr) (bump * bs);
          free_sbs := sb :: !free_sbs
        end
        else begin
          let is_live = Array.make (max bump 1) false in
          List.iter
            (fun off ->
              let rel = off - sb - sb_hdr in
              if rel < 0 || rel mod bs <> 0 || rel / bs >= bump then
                fail "Ralloc.recover: offset %d is not a carved block" off;
              is_live.(rel / bs) <- true)
            live_here;
          (* Fresh freelist out of the dead carved blocks; reachable
             blocks get their poison marks cleared (they may have been
             freed by the dead process after the store last saw them —
             reachability wins). *)
          wr t (sb + f_free_head) 0;
          let fc = ref 0 in
          for b = bump - 1 downto 0 do
            let off = sb + sb_hdr + (b * bs) in
            if is_live.(b) then unpoison_alloc t off bs
            else begin
              poison_free t off bs;
              wr t (off + 0) (rd t (sb + f_free_head));
              wr t (sb + f_free_head) off;
              incr fc
            end
          done;
          wr t (sb + f_free_count) !fc;
          wr t (sb + f_next_partial) 0;
          wr t (sb + f_prev_partial) 0;
          wr t (sb + f_on_partial) 0
        end;
        incr i
      | k when k = kind_large_head ->
        let n = max 1 (rd t (sb + f_large_sbs)) in
        let lsize = rd t (sb + f_large_size) in
        if List.mem (sb + sb_hdr) live_here then
          unpoison_alloc t (sb + sb_hdr) lsize
        else begin
          if live_here <> [] then
            fail "Ralloc.recover: interior offset into large block";
          poison_free t (sb + sb_hdr) lsize;
          for j = n - 1 downto 0 do
            free_sbs := (sb + (j * superblock_size)) :: !free_sbs
          done
        end;
        i := !i + n
      | _ ->
        if live_here <> [] then
          fail "Ralloc.recover: live offset in a free superblock";
        free_sbs := sb :: !free_sbs;
        incr i
    done;
    (* Rebuild the free-superblock list... *)
    wr t off_free_sb_head 0;
    List.iter (fun sb -> push_free_sb t sb) (List.rev !free_sbs);
    (* ...then the per-class partial lists, from scratch. *)
    for c = 0 to n_classes - 1 do
      wr t (partial_head_off c) 0
    done;
    let i = ref 0 in
    while !i < fresh do
      let sb = sb_off t !i in
      match rd t (sb + f_kind) with
      | k when k = kind_small ->
        if rd t (sb + f_free_count) > 0
           || rd t (sb + f_bump) < rd t (sb + f_num_blocks)
        then push_partial t (rd t (sb + f_class)) sb;
        incr i
      | k when k = kind_large_head ->
        i := !i + max 1 (rd t (sb + f_large_sbs))
      | _ -> incr i
    done;
    Atomic.set t.used (scan_used t))

(* ---- Introspection --------------------------------------------------------- *)

type class_stat = {
  cs_block_size : int;
  cs_superblocks : int;
  cs_free_blocks : int;
  cs_cached_blocks : int;
}

let class_stats t =
  Region.kernel_mode (fun () ->
    let stats =
      Array.init n_classes (fun c ->
        { cs_block_size = size_classes.(c); cs_superblocks = 0;
          cs_free_blocks = 0;
          cs_cached_blocks = List.length !((my_cache t).(c)) })
    in
    let fresh = rd t off_next_fresh in
    let i = ref 0 in
    while !i < fresh do
      let sb = sb_off t !i in
      (match rd t (sb + f_kind) with
       | k when k = kind_small ->
         let c = rd t (sb + f_class) in
         let free_blocks =
           rd t (sb + f_free_count)
           + (rd t (sb + f_num_blocks) - rd t (sb + f_bump))
         in
         stats.(c) <-
           { (stats.(c)) with
             cs_superblocks = stats.(c).cs_superblocks + 1;
             cs_free_blocks = stats.(c).cs_free_blocks + free_blocks };
         incr i
       | k when k = kind_large_head ->
         i := !i + max 1 (rd t (sb + f_large_sbs))
       | _ -> incr i)
    done;
    stats)

(* ---- Heap observatory ------------------------------------------------ *)

type heap_class = {
  hc_block_size : int;
  hc_superblocks : int;
  hc_capacity : int;  (** blocks the class's superblocks could hold *)
  hc_carved : int;  (** blocks ever bumped out *)
  hc_live : int;  (** carved minus freelisted (cached blocks count live) *)
}

type heap_map = {
  hm_classes : heap_class array;
  hm_large_runs : int;
  hm_large_sbs : int;
  hm_large_bytes : int;
  hm_small_sbs : int;
  hm_free_sbs : int;  (** carved then fully released *)
  hm_fresh_sbs : int;  (** never carved *)
  hm_total_sbs : int;
  hm_live_bytes : int;  (** reconciles with {!used_bytes} *)
  hm_largest_free_run : int;
  (** longest allocatable extent in superblocks; the fresh tail
      extends a free run ending at the carve frontier *)
  hm_free_run_sbs : int;  (** free + fresh superblocks *)
  hm_ext_frag : float;
  (** 1 - largest_free_run / free_run_sbs: 0 when all free storage is
      one extent (or there is none), approaching 1 as the free space
      shatters into unusable shards *)
}

(* One structural walk builds the whole profile; like [scan_used] it
   reads superblock headers only, so it is safe on a freshly attached
   (even crashed) heap. *)
let heap_map t =
  Region.kernel_mode (fun () ->
    let classes =
      Array.init n_classes (fun c ->
        { hc_block_size = size_classes.(c); hc_superblocks = 0;
          hc_capacity = 0; hc_carved = 0; hc_live = 0 })
    in
    let count = sb_count t in
    let fresh = min (rd t off_next_fresh) count in
    let large_runs = ref 0 and large_sbs = ref 0 and large_bytes = ref 0 in
    let small_sbs = ref 0 and free_sbs = ref 0 in
    let live_bytes = ref 0 in
    let run = ref 0 and largest = ref 0 in
    let i = ref 0 in
    while !i < fresh do
      let sb = sb_off t !i in
      (match rd t (sb + f_kind) with
       | k when k = kind_small ->
         let c = rd t (sb + f_class) in
         let bump = rd t (sb + f_bump) in
         let live = bump - rd t (sb + f_free_count) in
         if c >= 0 && c < n_classes then
           classes.(c) <-
             { (classes.(c)) with
               hc_superblocks = classes.(c).hc_superblocks + 1;
               hc_capacity = classes.(c).hc_capacity + rd t (sb + f_num_blocks);
               hc_carved = classes.(c).hc_carved + bump;
               hc_live = classes.(c).hc_live + live };
         live_bytes := !live_bytes + (live * rd t (sb + f_block_size));
         incr small_sbs;
         run := 0;
         incr i
       | k when k = kind_large_head ->
         let n = max 1 (rd t (sb + f_large_sbs)) in
         incr large_runs;
         large_sbs := !large_sbs + n;
         large_bytes := !large_bytes + rd t (sb + f_large_size);
         live_bytes := !live_bytes + rd t (sb + f_large_size);
         run := 0;
         i := !i + n
       | _ ->
         incr free_sbs;
         incr run;
         if !run > !largest then largest := !run;
         incr i)
    done;
    (* A free run touching the carve frontier merges with the fresh
       tail: [alloc_large] prefers fresh storage, so the allocatable
       extent is their sum. *)
    let fresh_tail = count - fresh in
    if !run + fresh_tail > !largest then largest := !run + fresh_tail;
    let free_total = !free_sbs + fresh_tail in
    { hm_classes = classes; hm_large_runs = !large_runs;
      hm_large_sbs = !large_sbs; hm_large_bytes = !large_bytes;
      hm_small_sbs = !small_sbs; hm_free_sbs = !free_sbs;
      hm_fresh_sbs = fresh_tail; hm_total_sbs = count;
      hm_live_bytes = !live_bytes;
      hm_largest_free_run = (if free_total = 0 then 0 else !largest);
      hm_free_run_sbs = free_total;
      hm_ext_frag =
        (if free_total = 0 then 0.
         else 1. -. (float_of_int !largest /. float_of_int free_total)) })

let heap_kvs t =
  let m = heap_map t in
  let base =
    [ ("heap_bytes_used", string_of_int (used_bytes t));
      ("heap_bytes_live", string_of_int m.hm_live_bytes);
      ("heap_bytes_capacity", string_of_int (capacity t));
      ("heap_sb_total", string_of_int m.hm_total_sbs);
      ("heap_sb_small", string_of_int m.hm_small_sbs);
      ("heap_sb_large", string_of_int m.hm_large_sbs);
      ("heap_sb_free", string_of_int m.hm_free_sbs);
      ("heap_sb_fresh", string_of_int m.hm_fresh_sbs);
      ("heap_large_runs", string_of_int m.hm_large_runs);
      ("heap_large_bytes", string_of_int m.hm_large_bytes);
      ("heap_largest_free_run_sbs", string_of_int m.hm_largest_free_run);
      ("heap_ext_frag", Printf.sprintf "%.4f" m.hm_ext_frag) ]
  in
  let per_class =
    Array.to_list m.hm_classes
    |> List.filter (fun hc -> hc.hc_superblocks > 0)
    |> List.concat_map (fun hc ->
      let p = Printf.sprintf "heap_class_%d" hc.hc_block_size in
      [ (p ^ "_superblocks", string_of_int hc.hc_superblocks);
        (p ^ "_live", string_of_int hc.hc_live);
        (p ^ "_capacity", string_of_int hc.hc_capacity);
        (p ^ "_util",
         Printf.sprintf "%.4f"
           (if hc.hc_capacity = 0 then 0.
            else float_of_int hc.hc_live /. float_of_int hc.hc_capacity)) ])
  in
  base @ per_class

(* One character per superblock ('.' free, 's' small, 'L' large head,
   'l' large continuation, '_' never carved), 64 to a row — the
   heap-map.txt CI artifact. *)
let render_heap_map t =
  let m = heap_map t in
  let b = Buffer.create 1024 in
  Region.kernel_mode (fun () ->
    let count = sb_count t in
    let fresh = min (rd t off_next_fresh) count in
    let chars = Bytes.make count '_' in
    let i = ref 0 in
    while !i < fresh do
      let sb = sb_off t !i in
      (match rd t (sb + f_kind) with
       | k when k = kind_small ->
         Bytes.set chars !i 's';
         incr i
       | k when k = kind_large_head ->
         let n = max 1 (rd t (sb + f_large_sbs)) in
         Bytes.set chars !i 'L';
         for j = 1 to min (n - 1) (count - !i - 1) do
           Bytes.set chars (!i + j) 'l'
         done;
         i := !i + n
       | _ ->
         Bytes.set chars !i '.';
         incr i)
    done;
    Buffer.add_string b
      (Printf.sprintf
         "heap map: %d superblocks x %d bytes (used %d / %d bytes, ext-frag \
          %.4f, largest free extent %d sbs)\n"
         count superblock_size (used_bytes t) (capacity t) m.hm_ext_frag
         m.hm_largest_free_run);
    let pos = ref 0 in
    while !pos < count do
      let n = min 64 (count - !pos) in
      Buffer.add_string b (Bytes.sub_string chars !pos n);
      Buffer.add_char b '\n';
      pos := !pos + n
    done);
  Array.iter
    (fun hc ->
      if hc.hc_superblocks > 0 then
        Buffer.add_string b
          (Printf.sprintf "class %5d: %2d sb, %4d/%4d blocks live (%.1f%%)\n"
             hc.hc_block_size hc.hc_superblocks hc.hc_live hc.hc_capacity
             (100.
              *. (if hc.hc_capacity = 0 then 0.
                  else float_of_int hc.hc_live /. float_of_int hc.hc_capacity))))
    m.hm_classes;
  Buffer.contents b

let check_invariants t =
  Region.kernel_mode (fun () ->
    let fail fmt = Printf.ksprintf failwith fmt in
    if rd t off_magic <> magic then fail "bad magic";
    let fresh = rd t off_next_fresh in
    let count = sb_count t in
    if fresh < 0 || fresh > count then fail "next_fresh out of range";
    let i = ref 0 in
    while !i < fresh do
      let sb = sb_off t !i in
      (match rd t (sb + f_kind) with
       | k when k = kind_free -> incr i
       | k when k = kind_small ->
         let bs = rd t (sb + f_block_size) in
         let c = rd t (sb + f_class) in
         if c < 0 || c >= n_classes || size_classes.(c) <> bs then
           fail "sb %d: class/block-size mismatch" !i;
         let bump = rd t (sb + f_bump) in
         let fc = rd t (sb + f_free_count) in
         let nb = rd t (sb + f_num_blocks) in
         if not (0 <= fc && fc <= bump && bump <= nb) then
           fail "sb %d: counter order violated (fc=%d bump=%d nb=%d)" !i fc
             bump nb;
         (* Walk the freelist. *)
         let seen = ref 0 in
         let p = ref (rd t (sb + f_free_head)) in
         while !p <> 0 do
           if !p < sb + sb_hdr || !p >= sb + superblock_size then
             fail "sb %d: freelist escapes superblock" !i;
           if (!p - sb - sb_hdr) mod bs <> 0 then
             fail "sb %d: misaligned freelist entry" !i;
           incr seen;
           if !seen > fc then fail "sb %d: freelist longer than free_count" !i;
           p := rd t (!p + 0)
         done;
         if !seen <> fc then
           fail "sb %d: freelist length %d <> free_count %d" !i !seen fc;
         incr i
       | k when k = kind_large_head ->
         let n = rd t (sb + f_large_sbs) in
         if n < 1 || !i + n > count then fail "sb %d: large run escapes heap" !i;
         let sz = rd t (sb + f_large_size) in
         if sz + sb_hdr > n * superblock_size
            || (n > 1 && sz + sb_hdr <= (n - 1) * superblock_size)
         then fail "sb %d: large size %d does not fit its %d-sb run" !i sz n;
         i := !i + n
       | k -> fail "sb %d: invalid kind %d" !i k)
    done;
    (* The free-superblock list must stay within the carved area and
       contain only free superblocks. *)
    let seen_free = ref 0 in
    let p = ref (rd t off_free_sb_head) in
    while !p <> 0 do
      incr seen_free;
      if !seen_free > count then fail "free-superblock list cycles";
      if !p < sb_base || !p >= sb_off t fresh then
        fail "free-superblock list escapes carved area";
      if (!p - sb_base) mod superblock_size <> 0 then
        fail "misaligned free-superblock entry";
      if rd t (!p + f_kind) <> kind_free then
        fail "non-free superblock on the free list";
      p := rd t (!p + f_next_free_sb)
    done;
    (* Partial lists must be doubly linked and flagged. *)
    for c = 0 to n_classes - 1 do
      let p = ref (rd t (partial_head_off c)) in
      let prev = ref 0 in
      while !p <> 0 do
        if rd t (!p + f_kind) <> kind_small then fail "class %d: non-small sb on partial list" c;
        if rd t (!p + f_class) <> c then fail "class %d: wrong-class sb on partial list" c;
        if rd t (!p + f_on_partial) <> 1 then fail "class %d: unflagged sb on partial list" c;
        if rd t (!p + f_prev_partial) <> !prev then fail "class %d: broken prev link" c;
        prev := !p;
        p := rd t (!p + f_next_partial)
      done
    done)
