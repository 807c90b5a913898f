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

val get : t -> int -> bool
(** @raise Invalid_argument outside [\[0, length)]. *)

val set : t -> int -> unit
val clear : t -> int -> unit

val popcount : t -> int
(** Number of set slots. *)

val of_bools : bool array -> t
val to_bools : t -> bool array

val to_hex : t -> string
(** {!Snf_obs.Leakage.mask_to_hex} of the packed bytes: the SNFT [mask]
    summary ([Snf_obs.Leakage.slots_of_hex] inverts it). *)

val write : Buffer.t -> t -> unit
(** Append the [(length + 7) / 8] packed bytes. *)

val read : length:int -> string -> pos:int -> t option
(** Inverse of {!write}: the [length]-slot mask packed at [pos], or [None]
    when a padding bit is set (a second encoding of the same slots).
    @raise Invalid_argument if the bytes run past the string. *)
