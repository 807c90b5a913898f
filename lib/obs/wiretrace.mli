(** SNFT wire-trace recorder: a deterministic, versioned log of every
    SNFM message that crosses the client/server boundary, as the server
    sees it.

    The recorder is a process-global tap. [Server_api.call] records one
    {e round} per round trip (the request event and its response event,
    appended atomically), and the executor brackets each query with
    {!mark} events so a trace can be cut back into per-query windows.

    {2 Determinism}

    The executor makes no concurrent server calls on a connection: a
    query's filters cross in one [Q_batch] round trip, whether it runs
    alone or in a batch. Rounds are therefore recorded in program order,
    and {!record} returns them in the order they arrived. With a pinned
    {!Clock} the trace, and so its JSON text, is identical for any
    [SNF_DOMAINS]; with the real clock, identical up to timestamps.

    {2 Format}

    SNFT version {!version} is one JSON document in the [Export] idiom:
    [{"snft": 1, "events": [...]}], one object per event with the fields
    of {!event}. A trace is written once its recording has closed. *)

val version : int

type dir =
  | Up  (** client → server (a serialized [Wire.request]) *)
  | Down  (** server → client (a serialized [Wire.response]) *)
  | Mark  (** recorder annotation, e.g. a query boundary *)

type event = {
  seq : int;  (** position in the trace, from 0 *)
  round : int;  (** round-trip id; an Up/Down pair shares one *)
  dir : dir;
  phase : string;  (** wire phase (admin/probe/filter/fetch/phe), or the mark label *)
  tag : int;  (** SNFM message tag; [-1] for marks *)
  bytes : int;  (** serialized message length; [0] for marks *)
  summary : (string * string) list;
      (** decoded structure summary — only server-visible facts *)
  ts_us : float;  (** {!Clock.now_us} at record time *)
}

type trace = { trace_version : int; events : event list }

(** {2 Recording} *)

val record : (unit -> 'a) -> 'a * trace
(** [record f] runs [f] and returns its result with the trace of the
    rounds recorded while it ran, in arrival order, rounds and
    sequence numbers counted from 0.

    Recordings nest. A recording opened inside another receives exactly
    the rounds recorded during its own [f], byte for byte what it would
    have received on its own, and the enclosing recording still receives
    every one of those rounds. If [f] raises, the recording is closed
    and the exception re-raised with its backtrace; the enclosing
    recording keeps the rounds recorded before the raise.

    There is one process-wide recorder: rounds recorded from another
    domain while [f] runs belong to every open recording. *)

val recording : unit -> bool
(** Whether any recording is open. *)

val record_round :
  phase:string ->
  up:int * int * (string * string) list ->
  down:int * int * (string * string) list ->
  unit
(** Record one round trip; each side is [(tag, bytes, summary)]. The
    two events are appended adjacently under one lock, with one shared
    timestamp. No-op when not recording. *)

val mark : ?summary:(string * string) list -> string -> unit
(** Record a boundary annotation (e.g. ["query.begin"]). *)

(** {2 Codec} *)

val to_json : trace -> Json.t
val of_json : Json.t -> (trace, string) result

val write_json : path:string -> trace -> unit
val read_json : path:string -> (trace, string) result

val equal : trace -> trace -> bool
