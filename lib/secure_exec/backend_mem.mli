(** In-process server backend: the pre-split arrays, behind the
    [Server_api] boundary.

    [of_store] {e adopts} the given store — in particular its columns'
    forms, built when the store was — so the conformance harness can
    still poison a form in place through the adopted store. *)

type t

val name : string

val of_store : Enc_relation.t -> t
val empty : unit -> t
(** A backend with no store; serves [Invalid_argument] until [Install]. *)

val view : t -> Server_api.store_view
val close : t -> unit
