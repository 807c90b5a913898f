(** Span-based tracing with negligible overhead when disabled.

    [with_ ~name f] runs [f]; when the tracer is enabled it records a
    completed span (start, duration, nesting depth, domain). Spans nest
    lexically per domain; completed spans buffer domain-locally and merge
    on [flush], which [Snf_exec.Parallel]'s pool workers call after every
    chunk. Export with
    {!Export.chrome_trace}. *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float;   (** start, µs since the trace epoch *)
  dur_us : float;  (** duration in µs *)
  depth : int;     (** nesting depth; 0 = top-level within its domain *)
  domain : int;    (** recording domain's id (Chrome trace "tid") *)
  seq : int;       (** per-domain span-start order *)
}

val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Disabled, this is [f ()] plus a single atomic load. Exceptions
    propagate; the span still records (its duration ends at the raise). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enabling the first time fixes the trace epoch. *)

val events : unit -> event list
(** All completed spans, ordered by start time (ties: domain, then span
    start order). Flushes the calling domain first. *)

val order : event -> event -> int
(** The ordering used by [events]. *)

val flush : unit -> unit
(** Merge this domain's completed spans into the global buffer. *)

val reset : unit -> unit
(** Drop recorded spans and restart the epoch at the current clock. *)
