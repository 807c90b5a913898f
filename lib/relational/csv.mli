(** CSV import/export for relations.

    Quoting follows RFC 4180 (fields containing commas, quotes or newlines
    are double-quoted; embedded quotes are doubled). The first line is a
    header of [name:type] pairs so a round-trip preserves the schema. *)

val to_string : Relation.t -> string

val of_string : string -> Relation.t
(** @raise Invalid_argument on malformed input (bad header, ragged rows,
    unparsable cells). Cell syntax per type: [int]/[float]/[bool] literals,
    anything for [text]; the empty unquoted field is [Null]. *)

val load : string -> Relation.t
