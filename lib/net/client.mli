(** The client half of the socket transport: a [Server_api.conn] whose
    round trip is one SNFF frame each way.

    Because the exchange hands [Server_api] exactly the unframed SNFM
    bytes, every piece of client machinery — [Executor.run_conn],
    [run_batch], the tid-decrypt cache and the crypto memo, the [exec.wire.*]
    counters, the SNFT recorder — works over the network unchanged, and
    counts the {e same} bytes as an in-process backend (framing overhead
    is transport bookkeeping, not protocol traffic). *)

exception Disconnected of string
(** Typed transport failure: the peer vanished, the stream broke, or the
    connection was already closed. Raised from any [Server_api] call on
    the connection; never an uncaught [Unix.Unix_error] or
    [End_of_file]. The connection is dead afterwards — reconnect to
    retry. *)

(** A raw connection handle, exposed (rather than only the sealed
    {!connect}) so the fault harness can sever the wire mid-flight. *)
type handle

val open_handle : string -> (handle, string) result
(** Dial [unix:/path] or [tcp:host:port]. [Error] on a malformed
    address, an unresolvable host, or a refused/failed connect. *)

val kill : handle -> unit
(** Sever the wire abruptly (both directions), as a crashed network
    would: no close handshake, no flush. Subsequent calls on a conn over
    this handle raise {!Disconnected}. Idempotent. *)

val raw_send : handle -> string -> unit
(** Write raw bytes with {e no} framing — fault-harness only, for
    putting a deliberately malformed or truncated frame on the wire.
    Raises {!Disconnected} on a dead handle or transport failure. *)

val conn_of_handle : handle -> Snf_exec.Server_api.conn
(** Wrap the handle as a connection named ["socket"]. Closing the conn
    closes the handle. Calls are serialized per handle (one in-flight
    frame pair at a time), so a multi-domain executor can share it. *)

val connect : string -> (Snf_exec.Server_api.conn, string) result
(** [open_handle] + [conn_of_handle]. *)

val backend : string -> Snf_exec.System.ext_backend
(** A [`Ext] backend kind dialing [addr] per binding — plug into
    [System.outsource ~backend] / [System.with_backend] to run the whole
    stack against a remote server. Connection failures at bind time
    surface as {!Disconnected}. *)

val sharded :
  ?policy:Snf_exec.Backend_sharded.policy ->
  string list ->
  Snf_exec.Backend_sharded.t
(** A sharded coordinator over socket shards, one address per shard:
    shard [i] dials the [i]-th address on its own SNFF stream, so the
    coordinator's fan-out runs genuinely concurrently on the wire. Dial
    failures surface as {!Disconnected} naming the shard. @raise
    Invalid_argument on an empty address list. *)

val sharded_backend :
  ?policy:Snf_exec.Backend_sharded.policy ->
  string list ->
  Snf_exec.System.ext_backend
(** {!sharded} wrapped as a [`Ext] backend kind (name
    ["sharded-socket"]) for [System.outsource ~backend] /
    [System.with_backend]. *)
