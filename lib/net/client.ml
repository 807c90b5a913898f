module Server_api = Snf_exec.Server_api
module System = Snf_exec.System
module Backend_sharded = Snf_exec.Backend_sharded

exception Disconnected of string

(* A peer that disappears mid-write delivers SIGPIPE, whose default
   disposition kills the process; we want the EPIPE return instead. *)
let ignore_sigpipe =
  lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

type handle = {
  fd : Unix.file_descr;
  peer : string;
  lock : Mutex.t;  (** one in-flight frame pair at a time *)
  mutable alive : bool;
}

let open_handle addr_s =
  Lazy.force ignore_sigpipe;
  match Addr.parse addr_s with
  | Error e -> Error e
  | Ok addr -> (
    match Addr.sockaddr addr with
    | Error e -> Error e
    | Ok sa -> (
      let domain = Unix.domain_of_sockaddr sa in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () ->
        Ok { fd; peer = Addr.to_string addr; lock = Mutex.create (); alive = true }
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot connect to %s: %s" (Addr.to_string addr)
             (Unix.error_message err))))

let kill h =
  if h.alive then (
    h.alive <- false;
    try Unix.shutdown h.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

let close_handle h =
  kill h;
  try Unix.close h.fd with Unix.Unix_error _ -> ()

let fail h msg =
  kill h;
  raise (Disconnected (Printf.sprintf "%s: %s" h.peer msg))

(* One round trip: the request bytes out as one frame, the response
   frame back. Every transport failure — including calling a dead
   handle — lands as [Disconnected]. *)
let exchange h up =
  Mutex.protect h.lock @@ fun () ->
  if not h.alive then fail h "connection closed";
  match
    Frame.write h.fd up;
    Frame.read h.fd
  with
  | Some (Ok down) -> down
  | Some (Error e) -> fail h ("bad frame from server: " ^ Frame.error_to_string e)
  | None -> fail h "server closed the connection"
  | exception Unix.Unix_error (err, _, _) -> fail h (Unix.error_message err)
  | exception End_of_file -> fail h "stream ended mid-frame"

(* Raw bytes, no framing — the fault harness uses this to leave a
   deliberately truncated frame on the wire before severing it. *)
let raw_send h s =
  Mutex.protect h.lock @@ fun () ->
  if not h.alive then fail h "connection closed";
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let k =
        try Unix.write h.fd b off (n - off)
        with Unix.Unix_error (err, _, _) -> fail h (Unix.error_message err)
      in
      if k = 0 then fail h "connection closed during write";
      go (off + k)
    end
  in
  go 0

let conn_of_handle h =
  Server_api.connect_handler ~name:"socket" ~handle:(exchange h)
    ~close:(fun () -> close_handle h)

let connect addr_s = Result.map conn_of_handle (open_handle addr_s)

let backend addr_s =
  { System.ext_name = "socket";
    ext_connect =
      (fun () ->
        match connect addr_s with
        | Ok conn -> conn
        | Error e -> raise (Disconnected e)) }

(* Multi-connection fan-out: one coordinator over N socket servers, one
   address per shard. Each shard leg is its own SNFF stream and, being
   a "socket" connection, its own Parallel lane even on one domain, so
   the legs are genuinely concurrent on the wire — per-handle
   serialization never queues one shard behind another. *)
let sharded ?policy addrs =
  let addrs = Array.of_list addrs in
  if Array.length addrs = 0 then
    invalid_arg "Snf_net.Client.sharded: need at least one shard address";
  Backend_sharded.create ?policy ~shards:(Array.length addrs)
    ~connect:(fun i ->
      match connect addrs.(i) with
      | Ok conn -> conn
      | Error e ->
        raise (Disconnected (Printf.sprintf "shard %d (%s): %s" i addrs.(i) e)))
    ()

let sharded_backend ?policy addrs =
  let st = sharded ?policy addrs in
  { System.ext_name = "sharded-socket";
    ext_connect = (fun () -> Backend_sharded.connect st) }
