module Server_api = Snf_exec.Server_api
module Wire = Snf_exec.Wire
module Backend_mem = Snf_exec.Backend_mem
module Metrics = Snf_obs.Metrics

type config = {
  domains : int;
  queue_capacity : int;
  idle_timeout : float;
  max_frame : int;
}

let default_config =
  { domains = Snf_exec.Parallel.domain_count ();
    queue_capacity = 1024;
    idle_timeout = 60.;
    max_frame = Frame.default_max_frame }

type stats = {
  sessions_opened : int;
  sessions_active : int;
  requests_served : int;
  busy_rejections : int;
  frame_errors : int;
}

let m_sessions = Metrics.counter "exec.server.sessions"
let m_requests = Metrics.counter "exec.server.requests"
let m_busy = Metrics.counter "exec.server.busy"
let m_ferrs = Metrics.counter "exec.server.frame_errors"

let ignore_sigpipe =
  lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

type session = {
  s_fd : Unix.file_descr;
  s_handle : string -> string;
  (* Serializes this session's dispatch across worker domains — requests
     on one connection are serial anyway (the client blocks on each
     round trip), so this costs nothing and keeps one session's requests
     in order. *)
  s_dlock : Mutex.t;
  (* Guards response writes AND fd teardown: [s_open] flips to false
     under this lock before the fd is closed or shut down, so a late
     worker can never write into a recycled descriptor. *)
  s_wlock : Mutex.t;
  mutable s_open : bool;
  mutable s_last : float;  (** last wire activity (reaper reads, benign race) *)
}

type job = { j_session : session; j_bytes : string }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Addr.t;
  view : Server_api.store_view;
  close_backend : unit -> unit;
  lock : Mutex.t;
  nonempty : Condition.t;  (** queue gained a job, or shutdown *)
  idle : Condition.t;  (** queue empty and nothing in flight *)
  queue : job Queue.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable in_flight : int;
  mutable draining : bool;  (** no new sessions or admissions *)
  mutable stopped : bool;  (** workers may exit once the queue is dry *)
  mutable opened : int;
  mutable served : int;
  mutable busy : int;
  mutable ferrs : int;
  mutable accept_thread : Thread.t option;
  mutable threads : Thread.t list;  (** readers + reaper *)
  mutable workers : unit Domain.t list;
}

(* The storage view is shared by every session; backends mutate internal
   state on access (disk page cache, Install), so view calls are
   serialized. Filters, fetches and crypto stay outside the lock: they
   run on the returned leaf snapshot, whose column forms were built when
   the leaf was decoded and are only read. *)
let locked_view lock (v : Server_api.store_view) =
  let guard f = Mutex.protect lock f in
  { Server_api.describe = (fun () -> guard v.Server_api.describe);
    check_shape = (fun () -> guard v.Server_api.check_shape);
    install = (fun img -> guard (fun () -> v.Server_api.install img));
    leaf = (fun l -> guard (fun () -> v.Server_api.leaf l));
    eq_index = (fun ~leaf ~attr -> guard (fun () -> v.Server_api.eq_index ~leaf ~attr));
    paillier = (fun () -> guard v.Server_api.paillier) }

let send s payload =
  Mutex.protect s.s_wlock @@ fun () ->
  if s.s_open then
    try Frame.write s.s_fd payload with Unix.Unix_error _ -> ()

let busy_bytes = lazy (Wire.response_to_string Wire.R_busy)

(* Admission control: into the bounded queue, or an immediate typed
   R_busy — the request is never executed, so retrying is always safe. *)
let admit t s bytes =
  let accepted =
    Mutex.protect t.lock (fun () ->
        if t.draining || Queue.length t.queue >= t.cfg.queue_capacity then false
        else (
          Queue.add { j_session = s; j_bytes = bytes } t.queue;
          Condition.signal t.nonempty;
          true))
  in
  if not accepted then (
    Mutex.protect t.lock (fun () -> t.busy <- t.busy + 1);
    Metrics.incr m_busy;
    send s (Lazy.force busy_bytes))

(* Only the session's own reader thread reaps (and closes the fd) — a
   single closer means no one can race the close into a recycled fd. *)
let reap t sid s =
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.sessions sid);
  Mutex.protect s.s_wlock (fun () ->
      if s.s_open then (
        s.s_open <- false;
        (try Unix.shutdown s.s_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close s.s_fd with Unix.Unix_error _ -> ()))

(* Others (idle reaper, [stop]) sever the wire but leave the close to
   the reader, which wakes with EOF. *)
let kick s =
  Mutex.protect s.s_wlock (fun () ->
      if s.s_open then
        try Unix.shutdown s.s_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

let rec session_loop t sid s =
  match Frame.read ~max_frame:t.cfg.max_frame s.s_fd with
  | None -> reap t sid s
  | Some (Error _) ->
    (* Framing is unrecoverable: count it, drop the session, keep
       serving everyone else. *)
    Mutex.protect t.lock (fun () -> t.ferrs <- t.ferrs + 1);
    Metrics.incr m_ferrs;
    reap t sid s
  | Some (Ok bytes) ->
    s.s_last <- Unix.gettimeofday ();
    admit t s bytes;
    session_loop t sid s
  | exception Unix.Unix_error _ -> reap t sid s

let spawn_session t fd =
  let s =
    { s_fd = fd;
      s_handle = Server_api.session_handler t.view;
      s_dlock = Mutex.create ();
      s_wlock = Mutex.create ();
      s_open = true;
      s_last = Unix.gettimeofday () }
  in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Mutex.protect t.lock (fun () ->
      if t.draining then (try Unix.close fd with Unix.Unix_error _ -> ())
      else (
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        Hashtbl.replace t.sessions sid s;
        t.opened <- t.opened + 1;
        Metrics.incr m_sessions;
        t.threads <- Thread.create (fun () -> session_loop t sid s) () :: t.threads))

let rec accept_loop t =
  let draining = Mutex.protect t.lock (fun () -> t.draining) in
  if draining then (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  else (
    (match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ -> spawn_session t fd
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
        ->
        ())
    | exception Unix.Unix_error _ -> Thread.delay 0.05);
    accept_loop t)

let rec worker_loop t =
  let job =
    Mutex.protect t.lock (fun () ->
        let rec get () =
          if not (Queue.is_empty t.queue) then (
            t.in_flight <- t.in_flight + 1;
            Some (Queue.pop t.queue))
          else if t.stopped then None
          else (
            Condition.wait t.nonempty t.lock;
            get ())
        in
        get ())
  in
  match job with
  | None -> Snf_obs.flush ()
  | Some { j_session = s; j_bytes = bytes } ->
    let resp =
      (* [session_handler] already answers typed failures as
         R_corrupt/R_error payloads; this catch-all keeps a server bug
         from taking the process down. *)
      try Mutex.protect s.s_dlock (fun () -> s.s_handle bytes)
      with e ->
        Wire.response_to_string
          (Wire.R_error { not_found = false; msg = "server: " ^ Printexc.to_string e })
    in
    (* Counted (and the counter published) before the answer leaves, so
       [stats] or a metrics snapshot read by a client that holds its
       answer already includes it. *)
    Mutex.protect t.lock (fun () -> t.served <- t.served + 1);
    Metrics.incr m_requests;
    Snf_obs.flush ();
    send s resp;
    s.s_last <- Unix.gettimeofday ();
    Mutex.protect t.lock (fun () ->
        t.in_flight <- t.in_flight - 1;
        if Queue.is_empty t.queue && t.in_flight = 0 then Condition.broadcast t.idle);
    worker_loop t

let rec reaper_loop t =
  Thread.delay 0.1;
  (* Flushes this domain's metric shard (the accept/reader increments). *)
  Snf_obs.flush ();
  let finished = Mutex.protect t.lock (fun () -> t.draining && t.stopped) in
  if not finished then (
    (if t.cfg.idle_timeout > 0. then (
       let now = Unix.gettimeofday () in
       Mutex.protect t.lock (fun () ->
           Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
       |> List.iter (fun s ->
              if now -. s.s_last > t.cfg.idle_timeout then kick s)));
    reaper_loop t)

let start (type a) ?(config = default_config) ~addr
    (module B : Server_api.BACKEND with type t = a) (backend : a) =
  Lazy.force ignore_sigpipe;
  match Addr.parse addr with
  | Error e -> Error e
  | Ok parsed -> (
    match Addr.sockaddr parsed with
    | Error e -> Error e
    | Ok sa -> (
      let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      (match parsed with
      | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Addr.Unix_path _ -> ());
      match
        Unix.bind fd sa;
        Unix.listen fd 1024
      with
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let what =
          match err with
          | Unix.EADDRINUSE -> "address already in use"
          | e -> Unix.error_message e
        in
        Error (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string parsed) what)
      | () ->
        (* Report the kernel-assigned port for tcp:..:0 bindings. *)
        let bound =
          match (parsed, Unix.getsockname fd) with
          | Addr.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
          | _ -> parsed
        in
        let store_lock = Mutex.create () in
        let t =
          { cfg =
              { config with
                domains = max 1 config.domains;
                queue_capacity = max 1 config.queue_capacity };
            listen_fd = fd;
            bound;
            view = locked_view store_lock (B.view backend);
            close_backend = (fun () -> B.close backend);
            lock = Mutex.create ();
            nonempty = Condition.create ();
            idle = Condition.create ();
            queue = Queue.create ();
            sessions = Hashtbl.create 64;
            next_sid = 0;
            in_flight = 0;
            draining = false;
            stopped = false;
            opened = 0;
            served = 0;
            busy = 0;
            ferrs = 0;
            accept_thread = None;
            threads = [];
            workers = [] }
        in
        t.workers <-
          List.init t.cfg.domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
        t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
        t.threads <- [ Thread.create (fun () -> reaper_loop t) () ];
        Ok t))

let start_mem ?config ~addr () =
  start ?config ~addr (module Backend_mem) (Backend_mem.empty ())

let address t = Addr.to_string t.bound

let stats t =
  Mutex.protect t.lock (fun () ->
      { sessions_opened = t.opened;
        sessions_active = Hashtbl.length t.sessions;
        requests_served = t.served;
        busy_rejections = t.busy;
        frame_errors = t.ferrs })

let stop t =
  let first = Mutex.protect t.lock (fun () -> not t.draining && (t.draining <- true; true)) in
  if first then (
    (* 1. No new sessions: the accept thread sees [draining], closes the
       listen socket and exits. *)
    Option.iter Thread.join t.accept_thread;
    (* 2. Drain: queued and in-flight requests finish; readers answer
       anything that still arrives with R_busy. *)
    Mutex.protect t.lock (fun () ->
        while not (Queue.is_empty t.queue && t.in_flight = 0) do
          Condition.wait t.idle t.lock
        done);
    (* 3. Retire the pool. *)
    Mutex.protect t.lock (fun () ->
        t.stopped <- true;
        Condition.broadcast t.nonempty);
    List.iter Domain.join t.workers;
    (* 4. Close the surviving sessions; each reader reaps and exits. *)
    Mutex.protect t.lock (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
    |> List.iter kick;
    List.iter Thread.join (Mutex.protect t.lock (fun () -> t.threads));
    t.close_backend ();
    match t.bound with
    | Addr.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
    | Addr.Tcp _ -> ())
