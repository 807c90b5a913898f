(* SNFT wire-trace recorder. See wiretrace.mli for the contract.

   Recording appends whole rounds (request + response, or one mark)
   under a global mutex, stamping each round once from [Clock] inside
   the critical section — so an injected fake clock is ticked exactly
   once per round. The executor makes no concurrent calls on a
   connection, so arrival order is program order and [record] keeps it. *)

let version = 1

type dir = Up | Down | Mark

type event = {
  seq : int;
  round : int;
  dir : dir;
  phase : string;
  tag : int;
  bytes : int;
  summary : (string * string) list;
  ts_us : float;
}

type trace = { trace_version : int; events : event list }

(* --- recorder state -------------------------------------------------------------
   One global buffer of rounds, newest first, kept while any recording is
   open. A recording remembers the buffer as it began; its trace is the
   rounds consed on since, so an enclosing recording still receives every
   round. The last recording to close empties the buffer. *)

type raw_round = {
  r_phase : string;
  r_ts : float;
  r_entries : (dir * int * int * (string * string) list) list;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let buffer : raw_round list ref = ref [] (* newest first *)
let depth = ref 0 (* open recordings *)

let recording () = Atomic.get enabled

let push_round ~phase entries =
  Mutex.protect lock (fun () ->
      if !depth > 0 then
        buffer :=
          { r_phase = phase; r_ts = Clock.now_us (); r_entries = entries } :: !buffer)

let record_round ~phase ~up:(utag, ubytes, usum) ~down:(dtag, dbytes, dsum) =
  if recording () then
    push_round ~phase [ (Up, utag, ubytes, usum); (Down, dtag, dbytes, dsum) ]

let mark ?(summary = []) label =
  if recording () then push_round ~phase:label [ (Mark, -1, 0, summary) ]

let record f =
  let from =
    Mutex.protect lock (fun () ->
        incr depth;
        Atomic.set enabled true;
        !buffer)
  in
  let rounds = ref [] in
  let close () =
    Mutex.protect lock (fun () ->
        let rec since acc l =
          if l == from then acc
          else match l with r :: tl -> since (r :: acc) tl | [] -> acc
        in
        rounds := since [] !buffer;
        decr depth;
        if !depth = 0 then begin
          Atomic.set enabled false;
          buffer := []
        end)
  in
  let v = Fun.protect ~finally:close f in
  let events =
    List.concat
      (List.mapi
         (fun round r ->
           List.map
             (fun (dir, tag, bytes, summary) ->
               { seq = 0;
                 round;
                 dir;
                 phase = r.r_phase;
                 tag;
                 bytes;
                 summary;
                 ts_us = r.r_ts })
             r.r_entries)
         !rounds)
  in
  (v, { trace_version = version; events = List.mapi (fun seq e -> { e with seq }) events })

let equal (a : trace) (b : trace) = a = b

(* --- JSON codec ------------------------------------------------------------------ *)

let dir_to_string = function Up -> "up" | Down -> "down" | Mark -> "mark"

let dir_of_string = function
  | "up" -> Ok Up
  | "down" -> Ok Down
  | "mark" -> Ok Mark
  | s -> Error (Printf.sprintf "unknown direction %S" s)

let event_json e =
  Json.Obj
    [ ("seq", Json.Int e.seq);
      ("round", Json.Int e.round);
      ("dir", Json.String (dir_to_string e.dir));
      ("phase", Json.String e.phase);
      ("tag", Json.Int e.tag);
      ("bytes", Json.Int e.bytes);
      ("ts_us", Json.Float e.ts_us);
      ( "summary",
        Json.List
          (List.map
             (fun (k, v) -> Json.List [ Json.String k; Json.String v ])
             e.summary) )
    ]

let to_json t =
  Json.Obj
    [ ("snft", Json.Int t.trace_version);
      ("events", Json.List (List.map event_json t.events))
    ]

let ( let* ) = Result.bind

let req what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "wiretrace: missing or ill-typed %s" what)

let field name conv j = req name (Option.bind (Json.member name j) conv)

let map_m f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl ->
      let* y = f x in
      go (y :: acc) tl
  in
  go [] l

let event_of_json j =
  let* seq = field "seq" Json.to_int_opt j in
  let* round = field "round" Json.to_int_opt j in
  let* dir_s = field "dir" Json.to_string_opt j in
  let* dir = dir_of_string dir_s in
  let* phase = field "phase" Json.to_string_opt j in
  let* tag = field "tag" Json.to_int_opt j in
  let* bytes = field "bytes" Json.to_int_opt j in
  let* ts_us = field "ts_us" Json.to_float_opt j in
  let* sum_items = field "summary" Json.to_list_opt j in
  let* summary =
    map_m
      (fun p ->
        match Json.to_list_opt p with
        | Some [ k; v ] ->
          let* k = req "summary key" (Json.to_string_opt k) in
          let* v = req "summary value" (Json.to_string_opt v) in
          Ok (k, v)
        | _ -> Error "wiretrace: summary entry is not a [key, value] pair")
      sum_items
  in
  Ok { seq; round; dir; phase; tag; bytes; summary; ts_us }

let of_json j =
  let* v = field "snft" Json.to_int_opt j in
  if v <> version then Error (Printf.sprintf "wiretrace: unsupported SNFT version %d" v)
  else
    let* items = field "events" Json.to_list_opt j in
    let* events = map_m event_of_json items in
    Ok { trace_version = v; events }

let write_json ~path t = Export.write ~path (to_json t)

let read_json ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s ->
    let* j = Json.of_string s in
    of_json j
