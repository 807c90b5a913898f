(** Oblivious tid-join across encrypted leaves.

    Models the enclave-assisted reconstruction of §III-B: the enclave
    (which holds the client's keys) decrypts the tid columns of the
    leaves internally, then runs a {e sort-merge join over a bitonic
    network} — sort each leaf's (tid, slot) entries obliviously, then
    scan the sorted leaves rank by rank. The server observes only the public
    leaf sizes and the data-independent network schedule; in particular it
    never learns which tid of one leaf matched which row of another
    (sub-relation unlinkability during execution).

    Selection masks are applied {e inside} the enclave after the oblivious
    sort, so the network always processes the full leaves — selectivity is
    not leaked through the join's trace. The comparison counter reports
    the real number of compare-exchanges executed, which the cost model
    converts to estimated wall-clock time (Figure 3).

    Aligning leaves on tids does not depend on the query, so the join
    runs in two steps: a leaf's {e tid order} (its slots sorted by tid
    through one {!Bitonic.sort_ints} network over {!Packed} keys) is built
    once per key epoch, and every query is one linear {!lockstep} pass
    over the orders under its own masks. A store the pass cannot align is
    a tampered one; the executor reports it as typed corruption. The
    pairwise cascade the pass replaced is a test-side oracle
    ([Snf_reference.Join_reference]), which the equivalence tests and
    the [micro-join] bench compare the pass against. *)

type stats = {
  mutable comparisons : int;  (** compare-exchanges inside bitonic sorts *)
  mutable rows_processed : int; (** total entries fed to sort networks *)
  mutable joins : int;          (** oblivious join passes: one per
                                    {!lockstep} pass *)
}

val fresh_stats : unit -> stats

(** Packed sort key: MSB..LSB = tid(27) | row(27), 54 bits — every
    encodable key is [< max_int], leaving [max_int] free as the
    {!Bitonic.sort_ints} padding sentinel. Plain integer order on packed
    keys is tid order. *)
module Packed : sig
  val max_tid : int
  (** [2^27 - 1] *)

  val max_row : int
  (** [2^27 - 1] *)

  val encode : tid:int -> row:int -> int
  (** @raise Invalid_argument when either field is negative or above its
      bound. *)

  val tid : int -> int
  val row : int -> int
end

(** {1 Cached tid orders}

    The executor keeps each leaf's order per key epoch in
    [Enc_relation.tid_order_cached]. *)

val tid_order : stats -> int array -> int array option
(** The tid order of a leaf with these decrypted tids (slot [i] holds
    [tids.(i)]): its packed [(tid, slot)] keys ({!Packed}) sorted by one {!Bitonic.sort_ints} network, so
    [Packed.tid] / [Packed.row] of rank [r] are the [r]-th smallest tid
    and its slot. Charged to [stats]: the network's comparisons and one
    processed row per slot. [None], uncharged, when a tid or the row
    count does not fit {!Packed}. *)

val lockstep :
  stats -> drop_tid:(int -> bool) -> int array array -> Bitmask.t array ->
  int array array option
(** One pass over ranks [0 .. n-1] of k {!tid_order}s under k masks of the
    same leaves. A tid matches iff the k tids at its rank are equal; it is
    selected iff every leaf's mask bit at the slot its order names is set,
    and then kept unless [drop_tid]. The result holds, per leaf, the
    slots of the kept tids in ascending tid order ([result.(i).(j)] is
    leaf [i]'s slot of match [j]): the pairwise cascade's rows under the
    same masks, with [drop_tid] applied.

    The same pass checks that the store is aligned: equal row counts, equal
    tids at every rank and strictly increasing tids (a duplicate must not
    match twice). [None] when any check fails — a property of the store,
    not of the query, which the executor raises as
    [Integrity.Corruption].
    Charged as one join with no comparisons: the networks ran when the
    orders were built.
    @raise Invalid_argument unless there are as many masks as orders, at
    least one, and each mask is as long as the orders. *)
