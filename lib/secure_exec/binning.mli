(** Query binning (§III-B, after PANDA).

    The ORAM-free alternative for hiding tid correspondences during
    reconstruction: instead of fetching exactly the partner rows a
    selection matched (which would reveal the correspondence), the client
    asks for fixed-size {e bins} of rows chosen so that every wanted row is
    inside some requested bin and every bin mixes wanted rows with decoys.
    The server learns only which bins were touched.

    Bins partition the row universe by a keyed pseudorandom permutation,
    so bin membership carries no information about tids; a bin's identity
    reveals only that {e some} row inside it was wanted — an anonymity set
    of [bin_size] rows per access. *)

type schedule = {
  bin_size : int;
  bin_ids : int list;       (** requested bin indices, ascending *)
  bins : int list list;     (** rows of each requested bin, ascending;
                                parallel to [bin_ids] *)
  retrieved : int;          (** total rows fetched = bins × bin_size *)
  wanted : int;             (** rows actually needed *)
}

val assign :
  key:Snf_crypto.Prf.key -> universe:int -> bin_size:int -> int -> int
(** [assign ~key ~universe ~bin_size row] is the bin index of a row under
    the keyed permutation. Deterministic per key. *)

val schedule :
  key:Snf_crypto.Prf.key -> universe:int -> bin_size:int -> int list -> schedule
(** Bins covering all wanted rows: bin [b] holds every row whose shuffled
    position falls in [\[b·bin_size, (b+1)·bin_size)].

    Cost: one permutation call per wanted row to find its bin, then one
    inverse-permutation call per row of each wanted bin — at most
    [wanted_bins × bin_size] in all, independent of [universe] — plus a
    sort of each bin. @raise Invalid_argument on out-of-range rows,
    [bin_size < 1] or [universe < 1]. *)

val overhead : schedule -> float
(** [retrieved / max 1 wanted] — the bandwidth price of hiding the
    correspondence (1.0 = free, higher = more decoys). *)

val anonymity : schedule -> int
(** The per-access anonymity set: [bin_size]. *)
