(* Heavy-tailed request traces for the serve bench and smoke tests.

   Arrivals come from the cluster queue simulator's workload generator
   (Poisson interarrivals, Pareto runtimes) — the same process behind the
   paper's Figure 1 queue — so the served load has realistic bursts rather
   than a uniform drip. Each arrival is mapped to a planning request drawn
   from a TPC-H mix: the SQL evaluation queries plus join-graph specs over
   the Section VII relation sets, across planner kinds, modes and both
   engine profiles (hive and spark cost models). *)

(* SQL texts resolvable against the TPC-H catalog: every predicate follows
   a join-graph edge (part and supplier reach lineitem only through
   partsupp). Selections vary the filter-scaled schema, so distinct entries
   exercise distinct cache keys while repeats of one entry hit the shared
   plan cache. *)
let sql_pool =
  [|
    "select * from orders, lineitem where o_orderkey = l_orderkey";
    "select * from customer, orders, lineitem where c_custkey = o_custkey and \
     o_orderkey = l_orderkey";
    "select * from customer, orders, lineitem where c_custkey = o_custkey and \
     o_orderkey = l_orderkey and o_totalprice < 50000";
    "select * from customer, orders, lineitem, partsupp, supplier where c_custkey = \
     o_custkey and o_orderkey = l_orderkey and ps_partkey = l_partkey and s_suppkey = \
     ps_suppkey";
    "select * from part, partsupp, lineitem, orders where p_partkey = ps_partkey and \
     ps_partkey = l_partkey and l_orderkey = o_orderkey";
    "select * from part, partsupp, lineitem, orders where p_partkey = ps_partkey and \
     ps_partkey = l_partkey and l_orderkey = o_orderkey and p_retailprice < 1500";
  |]

let relations_pool =
  Array.of_list (List.map snd Raqo_catalog.Tpch.evaluation_queries)

let planners =
  [| Raqo.Cost_based.Selinger; Raqo.Cost_based.Bushy_dp; Raqo.Cost_based.Fast_randomized |]

let request_of rng i : Protocol.request =
  let payload =
    if Raqo_util.Rng.bool rng then Protocol.Sql (Raqo_util.Rng.pick rng sql_pool)
    else Protocol.Relations (Raqo_util.Rng.pick rng relations_pool)
  in
  let mode =
    (* Mostly joint optimization; a qo baseline sprinkled in. *)
    if Raqo_util.Rng.int rng 8 = 0 then
      Protocol.Qo (Raqo_cluster.Resources.make ~containers:20 ~container_gb:4.0)
    else Protocol.Raqo
  in
  (* Both engine profiles, so one served trace mixes cost models. *)
  let engine = Raqo_util.Rng.pick rng [| "hive"; "spark" |] in
  {
    Protocol.id = Printf.sprintf "t%04d" i;
    payload;
    planner = Raqo_util.Rng.pick rng planners;
    mode;
    (* A handful of distinct seeds: repeated seeds make the randomized
       planner's cache keys collide across requests (cross-query hits). *)
    seed = 42 + Raqo_util.Rng.int rng 4;
    adaptive = false;
    est_error = Raqo_execsim.Estimation_error.exact;
    engine;
    tenant = None;
  }

let generate ?(seed = 7) ?(arrival_rate = 2.0) ~requests () =
  if requests < 1 then invalid_arg "Trace_gen.generate: requests must be >= 1";
  if arrival_rate <= 0.0 then invalid_arg "Trace_gen.generate: arrival_rate must be > 0";
  let rng = Raqo_util.Rng.create seed in
  let workload =
    { Raqo_cluster.Queue_sim.default_workload with jobs = requests; arrival_rate }
  in
  let jobs = Raqo_cluster.Queue_sim.generate rng workload ~capacity:100 in
  List.mapi
    (fun i (job : Raqo_cluster.Queue_sim.job) -> (job.arrival, request_of rng i))
    jobs

let to_lines trace =
  List.map
    (fun (arrival, req) ->
      Printf.sprintf "%s %s" (Raqo_obs.Export.fmt_float arrival)
        (Protocol.request_to_json req))
    trace

let parse_line line =
  match String.index_opt line ' ' with
  | None -> Error "trace line must be \"<arrival-seconds> <request-json>\""
  | Some i -> (
      let arrival_s = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match float_of_string_opt arrival_s with
      | None -> Error (Printf.sprintf "bad arrival time %S" arrival_s)
      | Some arrival ->
          Result.map (fun req -> (arrival, req)) (Protocol.parse_request rest))
