module Prng = Snf_crypto.Prng

(* Blocks are fixed size, so every payload lives in one flat byte store
   at [id * block_size] and only block ids move: the tree is one flat run
   of 32-bit ids indexed by [heap_index * Z + slot] (-1 = empty slot), and
   the stash is the dense prefix [stash_ids.(0 .. stash_len-1)]. Nothing
   holds a pointer per block, so the GC sees a few flat arrays however many
   blocks an ORAM keeps, and a write copies its payload in rather than
   retaining the caller's string. Every id is in at most one place, tree
   or stash, so path read-in appends without a lookup. The stash starts at
   twice a path's capacity and doubles when full, which a bounded stash
   almost never needs. *)
type t = {
  bucket_size : int;
  num_blocks : int;
  block_size : int;
  depth : int;                          (* levels 0..depth; leaves at depth *)
  tree : Bytes.t;                       (* num_buckets * bucket_size int32 slots *)
  data : Bytes.t;                       (* num_blocks * block_size; zeros until written *)
  position : int array;                 (* block id -> leaf index in [0, 2^depth) *)
  mutable stash_ids : int array;
  mutable stash_len : int;
  (* Write-back scratch: per-level chains of stash slots ([level_head],
     linked through [next]) and the carried pool of placeable slots. *)
  level_head : int array;               (* depth + 1 *)
  mutable next : int array;             (* stash capacity *)
  mutable pool : int array;             (* stash capacity *)
  prng : Prng.t;
  mutable accesses : int;
  mutable touches : int;
  mutable observed : int array;         (* path leaf of each access, oldest first *)
}

let create ?(bucket_size = 4) ~num_blocks ~block_size prng =
  if num_blocks < 1 then invalid_arg "Path_oram.create: num_blocks < 1";
  if bucket_size < 1 then invalid_arg "Path_oram.create: bucket_size < 1";
  if block_size < 0 then invalid_arg "Path_oram.create: block_size < 0";
  if num_blocks > Int32.to_int Int32.max_int then
    invalid_arg "Path_oram.create: num_blocks exceeds 32-bit block ids";
  let rec depth_for leaves d = if leaves >= num_blocks then d else depth_for (leaves * 2) (d + 1) in
  let depth = depth_for 1 0 in
  let num_leaves = 1 lsl depth in
  let num_buckets = (2 * num_leaves) - 1 in
  let stash_cap = 2 * (depth + 1) * bucket_size in
  { bucket_size;
    num_blocks;
    block_size;
    depth;
    tree = Bytes.make (4 * num_buckets * bucket_size) '\xff';
    data = Bytes.make (num_blocks * block_size) '\x00';
    position = Array.init num_blocks (fun _ -> Prng.int prng num_leaves);
    stash_ids = Array.make stash_cap (-1);
    stash_len = 0;
    level_head = Array.make (depth + 1) (-1);
    next = Array.make stash_cap (-1);
    pool = Array.make stash_cap 0;
    prng;
    accesses = 0;
    touches = 0;
    observed = [||] }

let depth t = t.depth

(* Heap index of the bucket at [level] on the path to [leaf]: the node
   whose label is the leaf's [level]-bit prefix. *)
let bucket_index t ~leaf ~level =
  (((1 lsl t.depth) lor leaf) lsr (t.depth - level)) - 1

let slot t i = Int32.to_int (Bytes.get_int32_le t.tree (4 * i))
let set_slot t i id = Bytes.set_int32_le t.tree (4 * i) (Int32.of_int id)

let rec bit_length v = if v = 0 then 0 else 1 + bit_length (v lsr 1)

(* [a] copied into a fresh array of length [n], padded with [fill]. *)
let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let stash_push t id =
  let n = t.stash_len in
  if n = Array.length t.stash_ids then begin
    t.stash_ids <- grown t.stash_ids (2 * n) (-1);
    t.next <- Array.make (2 * n) (-1);
    t.pool <- Array.make (2 * n) 0
  end;
  t.stash_ids.(n) <- id;
  t.stash_len <- n + 1

let in_stash t id =
  let rec go s = s < t.stash_len && (t.stash_ids.(s) = id || go (s + 1)) in
  go 0

(* Evict onto the path to leaf [x], deepest bucket first. A stash block may
   sit at level [l] iff its leaf shares an [l]-bit prefix with [x], so its
   deepest legal level is [depth - bit_length (pos xor x)], and it is legal
   at every level above that. One pass chains each stash slot under its
   deepest legal level; walking the path upwards then adds each level's
   chain to a carried pool and fills the bucket from it. Which blocks fill a
   bucket never changes how many do, so this places the same number per
   level as any greedy write-back. Placed slots are marked and the stash is
   compacted in one pass. O(|stash| + L·Z), and no randomness is drawn. *)
let write_back t x =
  Array.fill t.level_head 0 (t.depth + 1) (-1);
  for s = 0 to t.stash_len - 1 do
    let l = t.depth - bit_length (t.position.(t.stash_ids.(s)) lxor x) in
    t.next.(s) <- t.level_head.(l);
    t.level_head.(l) <- s
  done;
  let pooled = ref 0 in
  for level = t.depth downto 0 do
    let s = ref t.level_head.(level) in
    while !s >= 0 do
      t.pool.(!pooled) <- !s;
      incr pooled;
      s := t.next.(!s)
    done;
    (* The read-in left this bucket empty. *)
    let base = bucket_index t ~leaf:x ~level * t.bucket_size in
    t.touches <- t.touches + 1;
    let k = ref 0 in
    while !k < t.bucket_size && !pooled > 0 do
      decr pooled;
      let s = t.pool.(!pooled) in
      set_slot t (base + !k) t.stash_ids.(s);
      t.stash_ids.(s) <- -1;
      incr k
    done
  done;
  let kept = ref 0 in
  for s = 0 to t.stash_len - 1 do
    if t.stash_ids.(s) >= 0 then begin
      t.stash_ids.(!kept) <- t.stash_ids.(s);
      incr kept
    end
  done;
  t.stash_len <- !kept

let check_id t id =
  if id < 0 || id >= t.num_blocks then invalid_arg "Path_oram: block id out of range"

(* One protocol access to block [id]; [payload] reads or writes its bytes
   at the given offset while the block sits in the stash. *)
let access t id payload =
  t.accesses <- t.accesses + 1;
  let x = t.position.(id) in
  if t.accesses > Array.length t.observed then
    t.observed <- grown t.observed (max 16 (2 * Array.length t.observed)) 0;
  t.observed.(t.accesses - 1) <- x;
  t.position.(id) <- Prng.int t.prng (1 lsl t.depth);
  (* Read the whole path into the stash. *)
  for level = 0 to t.depth do
    let base = bucket_index t ~leaf:x ~level * t.bucket_size in
    t.touches <- t.touches + 1;
    for k = 0 to t.bucket_size - 1 do
      let bid = slot t (base + k) in
      if bid >= 0 then begin
        stash_push t bid;
        set_slot t (base + k) (-1)
      end
    done
  done;
  (* A block accessed before is now in the stash; any other joins it. *)
  if not (in_stash t id) then stash_push t id;
  let result = payload (id * t.block_size) in
  write_back t x;
  result

let read t id =
  check_id t id;
  access t id (fun off -> Bytes.sub_string t.data off t.block_size)

let write t id d =
  check_id t id;
  if String.length d <> t.block_size then invalid_arg "Path_oram: wrong block size";
  access t id (fun off -> Bytes.blit_string d 0 t.data off t.block_size)

(* Bulk install: the state [create] plus one [write] per block in id
   order would leave, up to where blocks sit. The draws are the same —
   [num_blocks] at creation, then one per block in id order, each the
   block's final leaf — so every later access sees the same positions and
   draws the same remaps. Each block then goes straight into the deepest
   bucket on its path with a free slot, or into the stash when the whole
   path is full: a legal place, found without reading or writing a path.
   Buckets fill from slot 0, so a bucket's first empty slot is its next. *)
let of_blocks ?bucket_size ~block_size prng blocks =
  let n = Array.length blocks in
  let t = create ?bucket_size ~num_blocks:(max n 1) ~block_size prng in
  Array.iter
    (fun d -> if String.length d <> block_size then invalid_arg "Path_oram: wrong block size")
    blocks;
  for id = 0 to n - 1 do
    t.position.(id) <- Prng.int prng (1 lsl t.depth)
  done;
  let z = t.bucket_size in
  let rec free base k =
    if k = z then -1 else if slot t (base + k) < 0 then base + k else free base (k + 1)
  in
  Array.iteri
    (fun id d ->
      Bytes.blit_string d 0 t.data (id * block_size) block_size;
      let rec place level =
        if level < 0 then stash_push t id
        else
          match free (bucket_index t ~leaf:t.position.(id) ~level * z) 0 with
          | -1 -> place (level - 1)
          | i -> set_slot t i id
      in
      place t.depth)
    blocks;
  t

let access_count t = t.accesses
let bucket_touches t = t.touches
let stash_size t = t.stash_len
let paths_observed t = List.init t.accesses (fun i -> t.observed.(t.accesses - 1 - i))
