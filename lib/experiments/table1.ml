open Snf_relational
module Acs = Snf_workload.Acs
module Sensitivity = Snf_workload.Sensitivity
module Query_gen = Snf_workload.Query_gen
module Planner = Snf_exec.Planner
module Storage_model = Snf_exec.Storage_model
open Snf_core

type config = {
  rows : int;
  seed : int;
  weak : int;
  queries_per_way : int;
}

let default_config = { rows = 20_000; seed = 2013; weak = 172; queries_per_way = 100 }

type row = {
  method_name : string;
  storage_bytes : int;
  partitions : int;
  total_joins : int;
  normalized_cost : float;
  snf : bool;
  plan_seconds : float;
}

type result = { rows_used : int; attrs : int; weak_used : int; table : row list }

(* Planned on the calling domain: the planner's memo is per domain, so a
   fan-out would make its [plan.cache.*] hits and misses depend on which
   worker claimed which query. *)
let total_joins rep queries =
  List.fold_left
    (fun acc q ->
      match Planner.plan rep q with
      | Ok p -> acc + p.Planner.joins
      | Error _ ->
        (* The strawman can evaluate everything locally; an unplannable
           query would indicate a bug — surface it loudly. *)
        invalid_arg "Table1: unplannable query")
    0 queries

let run ?(config = default_config) () =
  let acs = Acs.generate { Acs.default_config with rows = config.rows; seed = config.seed } in
  let r = acs.Acs.relation in
  let schema = Relation.schema r in
  let policy = Sensitivity.annotate ~weak:config.weak ~seed:(config.seed + 7) schema in
  let g = acs.Acs.graph in
  let queries =
    Query_gen.mixed_workload ~count_per_way:config.queries_per_way
      ~seed:(config.seed + 13) r policy
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let rep = f () in
    (rep, Unix.gettimeofday () -. t0)
  in
  let methods =
    [ ("Naive", timed (fun () -> Strategy.naive policy));
      ("SNF (non-repeating)", timed (fun () -> Strategy.non_repeating g policy));
      ("SNF (max-repeating)", timed (fun () -> Strategy.max_repeating g policy));
      ("Strawman", timed (fun () -> Strategy.strawman policy)) ]
  in
  let naive_joins =
    max 1 (total_joins (fst (List.assoc "Naive" methods)) queries)
  in
  let encrypted_rows =
    List.map
      (fun (name, (rep, plan_seconds)) ->
        let joins = total_joins rep queries in
        { method_name = name;
          storage_bytes = Storage_model.representation_bytes Storage_model.Deployment r rep;
          partitions = List.length rep;
          total_joins = joins;
          normalized_cost = float_of_int joins /. float_of_int naive_joins;
          snf = Audit.is_snf g policy rep;
          plan_seconds })
      methods
  in
  let plaintext_row =
    { method_name = "Plaintext";
      storage_bytes = Storage_model.relation_plaintext_bytes r;
      partitions = 1;
      total_joins = 0;
      normalized_cost = 0.0;
      snf = false;
      plan_seconds = 0.0 }
  in
  { rows_used = config.rows;
    attrs = Schema.arity schema;
    weak_used = Sensitivity.weak_count policy;
    table = encrypted_rows @ [ plaintext_row ] }

let render result =
  let rows =
    List.map
      (fun row ->
        [ row.method_name;
          Report.mb row.storage_bytes;
          string_of_int row.partitions;
          Printf.sprintf "%.3f" row.normalized_cost;
          (if row.snf then "yes" else "no");
          Report.seconds row.plan_seconds ])
      result.table
  in
  Report.render_table
    ~title:
      (Printf.sprintf
         "Table I: partitioning strategies over the ACS-like dataset (%d rows, %d attrs, %d weak)"
         result.rows_used result.attrs result.weak_used)
    ~header:[ "Method"; "Storage"; "#Partitions"; "Query Cost"; "SNF"; "Plan time" ]
    rows
