module Metrics = Snf_obs.Metrics

(* Server-visible planner statistics. Everything here reduces facts the
   server already reveals — leaf row counts from Describe, value-class
   histograms from the equality indexes ([Wire.Q_store_stats]), and the
   client's own wire-byte accounting — so feeding the planner from this
   module adds zero leakage. The [version] stamp is what the plan cache
   keys freshness on: it moves only when the reduced statistics drift
   past {!drift_threshold}, so a stable store keeps its cached plans. *)

type attr_stats = { distinct : int; max_class : int }

type leaf_stats = { rows : int; attrs : (string * attr_stats) list }

type t = {
  lock : Mutex.t;
  mutable leaves : (string * leaf_stats) list;
  mutable version : int;
  (* Per-phase EWMA of bytes per request, both directions summed — the
     cost model's wire term. Keyed by the [exec.wire.<phase>.*] names. *)
  mutable wire_ewma : (string * float) list;
  mutable wire_last : (string * (int * int)) list; (* phase -> (reqs, bytes) *)
}

let drift_threshold = 0.2
let ewma_alpha = 0.25

let create () =
  { lock = Mutex.create ();
    leaves = [];
    version = 0;
    wire_ewma = [];
    wire_last = [] }

let reduce (raw : Wire.leaf_stats list) =
  List.map
    (fun (l : Wire.leaf_stats) ->
      ( l.Wire.s_label,
        { rows = l.Wire.s_rows;
          attrs =
            List.map
              (fun (a : Wire.attr_stats) ->
                ( a.Wire.a_attr,
                  { distinct = List.length a.Wire.a_classes;
                    max_class =
                      List.fold_left
                        (fun m (_, n) -> max m n)
                        0 a.Wire.a_classes } ))
              l.Wire.s_attrs } ))
    raw

(* Relative change past the threshold on any row count or distinct
   count, or any change in the leaf/attr sets, counts as drift. *)
let drifted old fresh =
  let rel a b = abs_float (float_of_int a -. float_of_int b) /. float_of_int (max 1 b) in
  List.length old <> List.length fresh
  || List.exists2
       (fun (lbl0, (l0 : leaf_stats)) (lbl1, (l1 : leaf_stats)) ->
         lbl0 <> lbl1
         || rel l1.rows l0.rows > drift_threshold
         || List.length l0.attrs <> List.length l1.attrs
         || List.exists2
              (fun (a0, (s0 : attr_stats)) (a1, (s1 : attr_stats)) ->
                a0 <> a1 || rel s1.distinct s0.distinct > drift_threshold)
              l0.attrs l1.attrs)
       old fresh

let ingest t raw =
  let fresh = reduce raw in
  Mutex.protect t.lock (fun () ->
      if t.leaves = [] || drifted t.leaves fresh then begin
        t.leaves <- fresh;
        t.version <- t.version + 1
      end
      else t.leaves <- fresh)

let version t = Mutex.protect t.lock (fun () -> t.version)

let rows t ~leaf =
  Mutex.protect t.lock (fun () ->
      Option.map (fun l -> l.rows) (List.assoc_opt leaf t.leaves))

let distinct t ~leaf ~attr =
  Mutex.protect t.lock (fun () ->
      match List.assoc_opt leaf t.leaves with
      | None -> None
      | Some l ->
        Option.map (fun (a : attr_stats) -> a.distinct) (List.assoc_opt attr l.attrs))

(* Fraction of a leaf's rows an equality predicate on [attr] keeps:
   worst-case class share when the histogram is known (max class /
   rows — honest about skew), 1.0 when the column has no canonical
   equality structure the server could exploit. *)
let eq_selectivity t ~leaf ~attr =
  Mutex.protect t.lock (fun () ->
      match List.assoc_opt leaf t.leaves with
      | None -> 1.0
      | Some l -> (
        match List.assoc_opt attr l.attrs with
        | None -> 1.0
        | Some a ->
          if l.rows = 0 || a.distinct = 0 then 1.0
          else
            min 1.0 (float_of_int a.max_class /. float_of_int (max 1 l.rows))))

(* --- wire-byte EWMAs --------------------------------------------------------- *)

(* Seeds for a cold EWMA: rough per-request byte shape of each phase, so
   the first plans of a session are still ordered sensibly. *)
let cold_estimate = function
  | "fetch" -> 2048.0
  | "filter" -> 512.0
  | _ -> 128.0

let observe_wire t =
  let sample phase =
    let v n = Metrics.value (Metrics.counter (Printf.sprintf "exec.wire.%s.%s" phase n)) in
    (v "requests", v "bytes_up" + v "bytes_down")
  in
  let fresh = List.map (fun p -> (p, sample p)) Server_api.phases in
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun (p, (reqs, bytes)) ->
          let r0, b0 =
            Option.value (List.assoc_opt p t.wire_last) ~default:(0, 0)
          in
          if reqs > r0 then begin
            let per = float_of_int (bytes - b0) /. float_of_int (reqs - r0) in
            let ewma =
              match List.assoc_opt p t.wire_ewma with
              | None -> per
              | Some e -> ((1.0 -. ewma_alpha) *. e) +. (ewma_alpha *. per)
            in
            t.wire_ewma <- (p, ewma) :: List.remove_assoc p t.wire_ewma
          end;
          t.wire_last <- (p, (reqs, bytes)) :: List.remove_assoc p t.wire_last)
        fresh)

let wire_bytes_per_request t ~phase =
  Mutex.protect t.lock (fun () ->
      Option.value (List.assoc_opt phase t.wire_ewma) ~default:(cold_estimate phase))
