let m_comparators = Snf_obs.Metrics.counter "exec.bitonic.comparators"

(* Largest power of two representable in a native int: 2^62 overflows to
   [min_int] on 64-bit OCaml, so the doubling loop must stop at 2^61. *)
let max_pow2 = 1 lsl 61

let next_pow2 n =
  if n < 0 then invalid_arg "Bitonic.next_pow2: negative length";
  if n > max_pow2 then
    invalid_arg "Bitonic.next_pow2: length exceeds the largest representable power of two";
  let rec go m = if m >= n then m else go (m * 2) in
  go 1

let comparator_count n =
  if n <= 1 then 0
  else begin
    let m = next_pow2 n in
    let k =
      let rec bits x = if x <= 1 then 0 else 1 + bits (x / 2) in
      bits m
    in
    (* m/2 * k*(k+1)/2 with the divisions applied before the product; the
       product itself can still exceed max_int for astronomically large m
       (2^60 * 1891 at m = 2^61), so refuse instead of silently wrapping. *)
    let half = m / 2 and per_stage = k * (k + 1) / 2 in
    if per_stage > 0 && half > max_int / per_stage then
      invalid_arg "Bitonic.comparator_count: count exceeds max_int";
    half * per_stage
  end

(* Standard iterative bitonic network over a padded option array; [None]
   acts as +infinity so real elements bubble to the front. *)
let sort ?counter ~cmp arr =
  let n = Array.length arr in
  if n > 1 then begin
    let m = next_pow2 n in
    let work = Array.make m None in
    for i = 0 to n - 1 do
      work.(i) <- Some arr.(i)
    done;
    (* Count locally and publish one batch update per sort: the inner loop
       runs O(n log^2 n) times and a per-tick shard update would dominate. *)
    let ticks = ref 0 in
    let tick () = incr ticks in
    let compare_exchange i j =
      (* Ascending: smaller element ends up at position i. *)
      match (work.(i), work.(j)) with
      | Some a, Some b ->
        tick ();
        if cmp a b > 0 then begin
          work.(i) <- Some b;
          work.(j) <- Some a
        end
      | None, Some b ->
        work.(i) <- Some b;
        work.(j) <- None
      | Some _, None | None, None -> ()
    in
    let k = ref 2 in
    while !k <= m do
      let j = ref (!k / 2) in
      while !j >= 1 do
        for i = 0 to m - 1 do
          let l = i lxor !j in
          if l > i then
            if i land !k = 0 then compare_exchange i l else compare_exchange l i
        done;
        j := !j / 2
      done;
      k := !k * 2
    done;
    for i = 0 to n - 1 do
      match work.(i) with
      | Some x -> arr.(i) <- x
      | None -> assert false (* all n real elements precede the sentinels *)
    done;
    Snf_obs.Metrics.add m_comparators !ticks;
    match counter with Some c -> c := !c + !ticks | None -> ()
  end

(* --- monomorphic int network --------------------------------------------- *)

(* [max_int] is the padding sentinel of [sort_ints]; under plain integer
   comparison it behaves exactly like the [None] of the generic network
   (always swapped toward the high positions, never counted), so the two
   networks move elements — and tick counters — identically. *)

(* Compare-exchange every pair (i, i + j) whose lower index i lies in a run
   [b, b + run), for b = lo, lo + 2j, ... below [hi]. Within a run the
   sort direction is fixed: the minimum goes to slot p and the maximum to
   slot q, with (p, q) = (i, i + j) ascending and (i + j, i) descending
   (where b land k <> 0). Branch-free: the swap mask comes from one
   comparison, both slots are written whatever it is, and the xor-mask
   exchange never subtracts keys, so [min_int] cannot overflow it. Ticks
   count pairs where both operands are real — the maximum is not the
   [max_int] sentinel — matching the generic network's Some/Some
   accounting. The caller checks bounds. *)
let exchange (work : int array) ~k ~j ~run ~lo ~hi =
  let ticks = ref 0 in
  let b = ref lo in
  while !b < hi do
    let base = !b in
    let p_off = if base land k = 0 then 0 else j in
    let q_off = j - p_off in
    for i = base to base + run - 1 do
      let p = i + p_off and q = i + q_off in
      let x = Array.unsafe_get work p and y = Array.unsafe_get work q in
      let flip = (x lxor y) land -Bool.to_int (x > y) in
      let hi_key = y lxor flip in
      Array.unsafe_set work p (x lxor flip);
      Array.unsafe_set work q hi_key;
      ticks := !ticks + Bool.to_int (hi_key <> max_int)
    done;
    b := base + (2 * j)
  done;
  !ticks

(* Run the substages [j_hi, j_hi/2, ..., j_lo] of stage [k] over the
   aligned power-of-two window [lo, hi), visiting each pair from its lower
   index only: the lower halves of the window's blocks of 2j. A substage
   with j >= the window width pairs the whole window with the one j slots
   above it, so the window holds only lower indices (exchanged here) or
   only upper ones (left to the lower window's owner). The schedule is
   data-independent; bounds are checked once per substage. *)
let run_substages (work : int array) ~k ~j_hi ~j_lo ~lo ~hi =
  let width = hi - lo in
  if lo < 0 || width < 1 || width land (width - 1) <> 0 || lo land (width - 1) <> 0 then
    invalid_arg "Bitonic.run_substages: window is not an aligned power of two";
  let ticks = ref 0 in
  let j = ref j_hi in
  while !j >= j_lo do
    let jj = !j in
    if jj < width then begin
      if hi > Array.length work then invalid_arg "Bitonic.run_substages: window outside the array";
      ticks := !ticks + exchange work ~k ~j:jj ~run:jj ~lo ~hi
    end
    else if lo land jj = 0 then begin
      if hi + jj > Array.length work then invalid_arg "Bitonic.run_substages: pair outside the array";
      ticks := !ticks + exchange work ~k ~j:jj ~run:width ~lo ~hi
    end;
    j := jj / 2
  done;
  !ticks

(* Tick counts of [bc] per-block jobs, run one domain per block and summed
   in block order. *)
let in_blocks bc f = Array.fold_left ( + ) 0 (Parallel.tabulate ~domains:bc bc f)

(* Below this padded size the sort runs on one domain. The value dates from
   a Domain.spawn per lane on each of the O(log^2 m) parallel passes; on
   the pool a pass hands off in a few us (bench micro-fanout), and at this
   size (12,000 keys) bench micro-sort measures ≈2,500 us per sort on one
   domain against ≈1,700 us on two (2-core VM). It is kept as is until it
   is re-derived from those measurements. *)
let min_parallel_size = 1 lsl 14

(* Largest power of two <= d, capped so each block keeps >= 4096 slots. *)
let block_count_for ~m ~domains =
  let rec down b = if b <= domains && m / b >= 4096 then b else down (b / 2) in
  down 8 |> max 1

(* The whole network over one aligned block [lo, hi). *)
let block_network work ~lo ~hi =
  let ticks = ref 0 in
  let k = ref 2 in
  while !k <= hi - lo do
    ticks := !ticks + run_substages work ~k:!k ~j_hi:(!k / 2) ~j_lo:1 ~lo ~hi;
    k := !k * 2
  done;
  !ticks

let sort_padded work m =
  let domains = Parallel.domain_count () in
  if domains = 1 || m < min_parallel_size then block_network work ~lo:0 ~hi:m
  else begin
    let bc = block_count_for ~m ~domains in
    let block = m / bc in
    (* Phase 1: every stage k <= block only ever pairs indices within one
       aligned block, so the bc sub-networks are independent — one domain
       each. Per-block tick counts come back as values and are summed in
       block order, keeping the counter deterministic. *)
    let ticks =
      ref (in_blocks bc (fun b -> block_network work ~lo:(b * block) ~hi:((b + 1) * block)))
    in
    (* Phase 2: stages k > block. A substage with j >= block pairs each
       block with the one j slots away; the domain owning the lower block
       exchanges the pair and the owner of the upper block skips it, so a
       parallel pass per substage is race free. Once j drops below block
       the remaining substages of the stage are block-local again and fuse
       into one parallel pass. *)
    let k = ref (block * 2) in
    while !k <= m do
      let kk = !k in
      let j = ref (kk / 2) in
      while !j >= block do
        let jj = !j in
        ticks :=
          !ticks
          + in_blocks bc (fun b ->
                run_substages work ~k:kk ~j_hi:jj ~j_lo:jj ~lo:(b * block)
                  ~hi:((b + 1) * block));
        j := jj / 2
      done;
      ticks :=
        !ticks
        + in_blocks bc (fun b ->
              run_substages work ~k:kk ~j_hi:(block / 2) ~j_lo:1 ~lo:(b * block)
                ~hi:((b + 1) * block));
      k := kk * 2
    done;
    !ticks
  end

let sort_ints ?counter arr =
  let n = Array.length arr in
  if n > 1 then begin
    let m = next_pow2 n in
    let work = Array.make m max_int in
    Array.blit arr 0 work 0 n;
    let ticks = sort_padded work m in
    Array.blit work 0 arr 0 n;
    Snf_obs.Metrics.add m_comparators ticks;
    match counter with Some c -> c := !c + ticks | None -> ()
  end
