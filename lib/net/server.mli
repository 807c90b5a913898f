(** The networked SNF server: accept loop, one session per connection,
    and a worker pool on OCaml 5 domains behind a bounded request queue.

    {b Session lifecycle.} Each accepted socket gets a session: its own
    [Server_api.session_handler] over the shared store view, exactly
    like an in-process connection, plus a reader thread that decodes
    SNFF frames off the wire. A session ends when the peer closes, the
    stream breaks, a frame fails to parse, or it sits idle past
    [idle_timeout]; the server reaps it and keeps serving everyone
    else.

    {b Backpressure.} The reader admits each request into a bounded
    queue. Past [queue_capacity] it answers [Wire.R_busy] immediately —
    a typed, retryable rejection the client sees as [Server_api.Busy] —
    without queueing or executing anything, so a flood degrades into
    explicit rejections, never an OOM or a hang.

    {b Workers.} [domains] spawned domains drain the queue in parallel.
    Dispatch for one session is serialized; the shared store view is locked only
    around leaf/index access, so scans from different sessions overlap.

    {b Drain.} {!stop} stops accepting, lets queued and in-flight work
    finish (late arrivals get [R_busy]), joins the pool, then closes the
    remaining sessions and the backend.

    Counters: [exec.server.sessions], [exec.server.requests],
    [exec.server.busy], [exec.server.frame_errors]. *)

type config = {
  domains : int;  (** worker pool size, >= 1 *)
  queue_capacity : int;  (** admission high-water, >= 1 *)
  idle_timeout : float;  (** seconds; [<= 0.] never reaps idle sessions *)
  max_frame : int;  (** per-frame payload cap *)
}

val default_config : config
(** [Parallel.domain_count ()] workers, a 1024-deep queue, a 60 s idle
    timeout, [Frame.default_max_frame]. *)

type stats = {
  sessions_opened : int;
  sessions_active : int;
  requests_served : int;
      (** requests a worker executed and answered (an [R_busy] rejection
          is not one). Counted before the answer is sent, so a client
          holding its answer reads a count that includes it. *)
  busy_rejections : int;
  frame_errors : int;
}

type t

val start :
  ?config:config ->
  addr:string ->
  (module Snf_exec.Server_api.BACKEND with type t = 'a) ->
  'a ->
  (t, string) result
(** Bind [unix:/path] or [tcp:host:port] and serve the backend.
    [Error] on a malformed address, an already-taken address/path, or
    any other bind failure — with a pointed message. Closing the server
    closes the backend. *)

val start_mem : ?config:config -> addr:string -> unit -> (t, string) result
(** Serve an initially empty in-process store (clients Install into it)
    — the [snf_cli serve] shape. *)

val address : t -> string
(** The actual bound address: for [tcp:host:0] the kernel-assigned port
    is filled in, so clients can dial [address t] directly. *)

val stats : t -> stats

val stop : t -> unit
(** Graceful drain, then release everything (the Unix socket path is
    unlinked). Idempotent. *)
