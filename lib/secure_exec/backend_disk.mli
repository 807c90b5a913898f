(** File-backed server backend: a [Wire] store image exploded into one
    file per leaf plus a small manifest, paged into memory on demand.

    This backend operationalizes two claims the serialization layer only
    asserted: a relation loaded from its wire form answers every query
    identically to the original (leaves round-trip through
    [Wire.leaf_to_string]), and the server can rebuild its column forms
    from what the image already reveals (forms are {e not} stored: a
    page-in decodes each column through [Enc_relation.make_column], and
    the first read that needs a deterministic column's form builds it
    from the paged cells and counts the build).

    Every leaf is validated when paged in — undecodable files, label or
    row-count disagreements with the manifest, and shape violations all
    raise typed [Integrity.Corruption].

    The manifest (SNFD version 4, layout in backend_disk.ml) records each
    leaf's label, row count, tid digest ([Wire.tids_digest], computed at
    Install) and file, so Describe pages nothing in. *)

type t

val name : string

val create : ?owns_dir:bool -> dir:string -> unit -> t
(** Open a store directory (created if missing); an existing manifest is
    loaded, so a previously installed store is served again. With
    [owns_dir] the directory and its store files are removed on
    {!close}.
    @raise Invalid_argument on a malformed manifest or one of another
    version — a version-1 manifest, which has no tid digests, a
    version-2 one, whose integers are 8-byte words, and a version-3
    one, whose tid digests are over SNFM 6 bytes, included. *)

val create_temp : unit -> t
(** A fresh private temp directory, owned: {!close} cleans it up. *)

val dir : t -> string

val view : t -> Server_api.store_view

val resident_labels : t -> string list
(** Labels currently paged into memory, sorted — observability for tests
    pinning the demand-paging behavior. *)

val close : t -> unit
