(** Packed filter masks: one bit per stored slot.

    Slot [k] is bit [k mod 8] of byte [k / 8]; the bits of the last byte
    past the final slot are padding and always clear. That byte layout is
    exactly what the SNFM codec carries ({!Wire}), so a mask crosses the
    boundary, is merged across shards and is read by the executor without
    ever being widened into a [bool array] (one word per slot). Equal masks
    have equal bytes, so structural equality is mask equality. *)

type t

val create : int -> bool -> t
(** [create n v]: [n] slots, every one set to [v].
    @raise Invalid_argument on a negative length. *)

val length : t -> int

val nbytes : int -> int
(** [nbytes n]: the [(n + 7) / 8] bytes that pack [n] slots, without
    overflowing at [max_int]. *)

val get : t -> int -> bool
(** @raise Invalid_argument outside [\[0, length)]. *)

val set : t -> int -> unit
val clear : t -> int -> unit

val popcount : t -> int
(** Number of set slots. *)

(** {2 Kernels}

    Loops over slots live here: dune's default profile compiles with
    [-opaque], so a caller's per-slot {!get} or {!set} is a real call
    each time. A kernel that walks a mask visits its set slots in
    ascending order and passes over zero bytes eight at a time, so it
    costs the set bits, not the length. No kernel allocates per slot or
    ever yields a slot at or past {!length}. *)

val iter_set : (int -> unit) -> t -> unit
(** [iter_set f m] calls [f] on every set slot of [m], ascending. *)

val to_slots : t -> int array
(** The set slots, ascending: an array of {!popcount} entries. *)

val scatter : t -> into:t -> int array -> unit
(** [scatter m ~into pos] sets slot [pos.(j)] of [into] for every set
    slot [j] of [m].
    @raise Invalid_argument unless [pos] holds [length m] positions, or
    when a position of a set slot is outside [into]. *)

val filter : t -> (int -> bool) -> unit
(** [filter m keep] clears every set slot [i] of [m] for which [keep i]
    is false; [keep] is asked about set slots only, ascending. *)

val select : t -> int array -> holds:(int -> bool) -> t
(** [select m slots ~holds]: a new mask of [length m] slots, setting
    each of [slots] that is set in [m] and passes [holds]. [holds] is
    asked about those set in [m] only, in [slots] order.
    @raise Invalid_argument on a slot outside [m]. *)

val packed : t -> string
(** A copy of the packed bytes, as {!write} appends them: slot [k] is
    bit [k land 7] of byte [k lsr 3]. For a reader that must read bits
    at positions of its own choosing without a call per bit; writes
    still go through the mask. *)

val of_bools : bool array -> t
val to_bools : t -> bool array

val to_hex : t -> string
(** {!Snf_obs.Leakage.mask_to_hex} of the packed bytes: the SNFT [mask]
    summary ([Snf_obs.Leakage.slots_of_hex] inverts it). *)

val write : Buffer.t -> t -> unit
(** Append the [(length + 7) / 8] packed bytes. *)

val write_slots : Buffer.t -> length:int -> int array -> unit
(** [write_slots buf ~length slots] appends what {!write} appends for
    the [length]-slot mask whose set slots are [slots], without building
    the mask.
    @raise Invalid_argument on a slot outside [\[0, length)]. *)

val read_slots : length:int -> string -> pos:int -> int array option
(** Inverse of {!write_slots}: the set slots, ascending, of the
    [length]-slot mask packed at [pos], or [None] when a padding bit is
    set. Like {!to_slots} of {!read}, without building the mask.
    @raise Invalid_argument if the bytes run past the string. *)

val read : length:int -> string -> pos:int -> t option
(** Inverse of {!write}: the [length]-slot mask packed at [pos], or [None]
    when a padding bit is set (a second encoding of the same slots).
    @raise Invalid_argument if the bytes run past the string. *)
