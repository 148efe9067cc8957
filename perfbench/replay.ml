(* The traced replay: each request is served as usual, then replayed layer
   by layer through the same public functions, in the same order, that
   [Engine.plan_request] and [Engine.allocate] call, with each call timed
   from the outside. The replay runs on a mirror engine's cache that sees
   the same operations in the same order as the serving engine's, so it
   does the same work and must return the same bytes. *)

open Perfbench
open Ops
module Rewrite = Raqo_rewrite.Rewrite
module Resolver = Raqo_sql.Resolver
module Allocator = Raqo_alloc.Allocator
module Surface = Raqo_alloc.Surface
module Counters = Raqo_resource.Counters

let qo_resources = Raqo_cluster.Resources.make ~containers:20 ~container_gb:4.0
let model_of engine = if engine = "spark" then Raqo.Models.spark () else Raqo.Models.hive ()

(* Per-layer accumulators: total seconds and call counts per timed layer,
   plus the counts taken over the counted prefix. *)
type layers = {
  time : (string, float * int) Hashtbl.t;
  mutable evaluations : int;
  mutable invocations : int;
  mutable private_hits : int;
  mutable private_lookups : int;
  mutable fired : int;
  mutable rewritten : int;
  mutable frontier_points : int;
  mutable exact : int;
  mutable allocations : int;
  mutable log_dollars : float;
  mutable mismatches : int;
}

let layers () =
  {
    time = Hashtbl.create 16;
    evaluations = 0;
    invocations = 0;
    private_hits = 0;
    private_lookups = 0;
    fired = 0;
    rewritten = 0;
    frontier_points = 0;
    exact = 0;
    allocations = 0;
    log_dollars = 0.0;
    mismatches = 0;
  }

(* [add ~calls l name dt] books [dt] seconds spread over [calls] calls. *)
let add ?(calls = 1) l name dt =
  let s, n = Option.value (Hashtbl.find_opt l.time name) ~default:(0.0, 0) in
  Hashtbl.replace l.time name (s +. dt, n + calls)

(* [layer l name f] times one call into a layer. *)
let layer l name f =
  let x, dt = timed f in
  add l name dt;
  x

let mean_of l name scale =
  match Hashtbl.find_opt l.time name with Some (s, n) when n > 0 -> s /. float_of_int n *. scale | _ -> 0.0

let count_optimizer l ~counting opt =
  if counting then begin
    let c = Cost_based.counters opt in
    l.evaluations <- l.evaluations + Counters.cost_evaluations c;
    l.invocations <- l.invocations + Counters.planner_invocations c;
    l.private_hits <- l.private_hits + Counters.cache_hits c;
    l.private_lookups <- l.private_lookups + Counters.cache_hits c + Counters.cache_misses c
  end

(* The engine's catalog, rebuilt from the same public constructors. *)
let tpch_schema = lazy (Raqo_catalog.Tpch.schema ~scale_factor:Engine.default_config.scale_factor ())
let tpch_columns = lazy (Raqo_catalog.Tpch.columns ~scale_factor:Engine.default_config.scale_factor ())

type resolved = {
  plan_schema : Raqo_catalog.Schema.t;
  truth_schema : Raqo_catalog.Schema.t;
  relations : string list;
  referenced : string list option;
  filters : (string * float) list;
}

let rec has_dup = function [] -> false | x :: rest -> List.mem x rest || has_dup rest

(* Replays [Engine]'s payload resolution (rewrite on, the default). *)
let resolve l = function
  | Protocol.Sql sql -> (
      let schema = Lazy.force tpch_schema and columns = Lazy.force tpch_columns in
      match layer l "sql.analyze" (fun () -> Resolver.analyze schema columns sql) with
      | Ok a ->
          Ok
            {
              plan_schema = schema;
              truth_schema = a.Resolver.schema;
              relations = a.Resolver.relations;
              referenced = a.Resolver.projected_tables;
              filters = a.Resolver.table_selectivity;
            }
      | Error e -> Error e)
  | Protocol.Relations rels -> (
      let schema = Lazy.force tpch_schema in
      if List.length rels < 2 then Error "need at least two relations to join"
      else if has_dup rels then Error "duplicate relation in \"relations\""
      else
        match List.find_opt (fun r -> not (Raqo_catalog.Schema.mem schema r)) rels with
        | Some r -> Error (Printf.sprintf "unknown relation %S" r)
        | None ->
            if not (Raqo_catalog.Schema.joinable schema rels) then
              Error "relations do not form a connected join graph"
            else
              Ok
                {
                  plan_schema = schema;
                  truth_schema = schema;
                  relations = rels;
                  referenced = None;
                  filters = [];
                })

let rewrite_summary opt =
  match Cost_based.rewrite_report opt with
  | Some r when r.Rewrite.changed -> Some { Protocol.fired = Rewrite.fired r; removed = r.Rewrite.removed }
  | Some _ | None -> None

(* Enumeration with trivial costing: the fixed-resource baseline over the
   same instance, on a private optimizer so the shared cache is untouched. *)
let enumerate l ~kind ~seed ~model schema relations =
  layer l "planner.enum" (fun () ->
      let opt = Cost_based.create ~kind ~seed ~rewrite:false ~model ~conditions schema in
      ignore (Cost_based.optimize_qo opt ~resources:qo_resources relations))

(* Replays [Engine.plan_request] on [cache], a mirror of the serving
   engine's cache that sees the same operations in the same order. *)
let replay_plan l ~cache ~registry ~counting (req : Protocol.request) =
  match resolve l req.payload with
  | Error message -> Protocol.Rejected { id = Some req.id; reason = Protocol.Bad_request; message }
  | Ok r -> (
      let model = model_of req.engine in
      let optimizer ~hints schema =
        Cost_based.create ~kind:req.planner ~seed:req.seed ~kernel:true ~shared_cache:cache
          ~rewrite:true ~rewrite_hints:hints ~metrics:registry ~model ~conditions schema
      in
      match req.mode with
      | Protocol.Qo resources -> (
          let opt = optimizer ~hints:Rewrite.no_hints r.truth_schema in
          let result = Cost_based.optimize_qo opt ~resources r.relations in
          count_optimizer l ~counting opt;
          match result with Some (plan, cost) -> planned ~id:req.id plan cost None | None -> infeasible req.id)
      | Protocol.Raqo when not req.adaptive -> (
          let hints = { Rewrite.filters = r.filters; referenced = r.referenced } in
          let opt, result =
            layer l "planner.optimize" (fun () ->
                let opt = optimizer ~hints r.plan_schema in
                (opt, Cost_based.optimize opt r.relations))
          in
          count_optimizer l ~counting opt;
          (* Beside the replayed path: the rewrite pass alone, and
             enumeration over the rewritten instance at fixed resources. *)
          let rw = Rewrite.create ~registry:(Raqo_obs.Metrics.create_registry ()) r.plan_schema in
          ignore (layer l "rewrite.apply" (fun () -> Rewrite.apply rw ~hints r.relations));
          if counting && (Rewrite.last rw).Rewrite.changed then l.fired <- l.fired + 1;
          if counting then l.rewritten <- l.rewritten + 1;
          enumerate l ~kind:req.planner ~seed:req.seed ~model (Rewrite.schema_out rw) (Rewrite.relations_out rw);
          match result with
          | Some (plan, cost) -> planned ~id:req.id plan cost (rewrite_summary opt)
          | None -> infeasible req.id)
      | Protocol.Raqo -> failwith "the benchmark generates no adaptive requests")

(* [Engine]'s pick off the frontier for each objective. *)
let choose objective (outcome : Allocator.outcome) =
  let best score =
    match outcome.Allocator.frontier with
    | [] -> outcome.Allocator.equal_split
    | p :: rest -> List.fold_left (fun acc q -> if score q < score acc then q else acc) p rest
  in
  match objective with
  | Protocol.Makespan -> best (fun (p : Allocator.point) -> p.makespan)
  | Protocol.Dollars -> best (fun (p : Allocator.point) -> p.dollars)
  | Protocol.Balanced ->
      best (fun (p : Allocator.point) ->
          p.makespan +. (1000.0 *. p.dollars) +. (1000.0 *. float_of_int p.violations))

(* Replays [Engine.allocate] on [cache], layer by layer. *)
let replay_allocate l ~cache ~registry ~counting (areq : Protocol.alloc_request) =
  let members =
    List.map
      (fun (q : Protocol.alloc_query) ->
        match resolve l q.payload with Ok r -> (q, r) | Error e -> failwith e)
      areq.queries
  in
  let model = model_of areq.engine in
  let plan_one ((q : Protocol.alloc_query), r) =
    let opt, result =
      layer l "alloc.plan" (fun () ->
          let opt =
            Cost_based.create ~kind:areq.planner ~seed:areq.seed ~kernel:true ~shared_cache:cache
              ~rewrite:false ~metrics:registry ~model ~conditions r.truth_schema
          in
          (opt, Cost_based.optimize opt r.relations))
    in
    count_optimizer l ~counting opt;
    match result with
    | None -> failwith ("infeasible member " ^ q.qid)
    | Some (plan, _) ->
        let surface =
          layer l "alloc.surface" (fun () ->
              Surface.build ~use_kernel:true ~model ~conditions ~schema:r.truth_schema ~name:q.qid plan)
        in
        let tenant =
          match (q.tenant, areq.tenant) with Some tn, _ | None, Some tn -> tn | None, None -> "default"
        in
        ( Allocator.query ~tenant ~weight:q.weight ~arrival:q.arrival ?slo:q.slo ~name:q.qid surface,
          Format.asprintf "%a" Raqo_plan.Join_tree.pp_joint plan )
  in
  let entries = List.map plan_one members in
  let queries = Array.of_list (List.map fst entries) in
  let want = Option.value (Allocator.want_of_string areq.search) ~default:Allocator.Auto in
  let outcome =
    layer l "alloc.search" (fun () ->
        Allocator.search ~want ~seed:areq.seed ~budget:areq.budget ~fairness:areq.fairness queries)
  in
  let point (p : Allocator.point) =
    {
      Protocol.containers = Array.to_list p.alloc;
      makespan = p.makespan;
      dollars = p.dollars;
      violations = p.violations;
    }
  in
  let chosen = choose areq.objective outcome in
  if counting then begin
    l.allocations <- l.allocations + 1;
    l.frontier_points <- l.frontier_points + List.length outcome.Allocator.frontier;
    if outcome.Allocator.mode = Allocator.Exact then l.exact <- l.exact + 1;
    if chosen.Allocator.dollars > 0.0 then l.log_dollars <- l.log_dollars +. log chosen.Allocator.dollars
  end;
  Protocol.Allocated
    {
      id = areq.id;
      search = Allocator.mode_name outcome.Allocator.mode;
      budget = areq.budget;
      frontier = List.map point outcome.Allocator.frontier;
      chosen = point chosen;
      equal_split = point outcome.Allocator.equal_split;
      queries =
        List.mapi
          (fun i (_, plan) ->
            let q = queries.(i) in
            let cap = chosen.Allocator.alloc.(i) in
            (q.Allocator.name, cap, Surface.latency_at q.Allocator.surface cap, plan))
          entries;
    }

let replay l ~mirror ~counting = function
  | Ok (Protocol.Request req) ->
      replay_plan l ~cache:(Engine.cache mirror) ~registry:(Engine.registry mirror) ~counting req
  | Ok (Protocol.Allocate areq) ->
      replay_allocate l ~cache:(Engine.cache mirror) ~registry:(Engine.registry mirror) ~counting areq
  | Ok (Protocol.Health _) | Error _ -> failwith "the benchmark generates only plan and allocate lines"

(* One traced burst: served on [engine] with parse, admission + waves and
   encoding timed, then replayed request by request on [mirror]. Returns
   (served response, served bytes, replayed bytes) per line. *)
let traced_burst l ~engine ~mirror ~counting lines =
  let parsed = List.map (fun line -> layer l "server.parse" (fun () -> Protocol.parse_line line)) lines in
  let admit_s = ref 0.0 in
  let immediate =
    List.map
      (function
        | Ok (Protocol.Request req) ->
            let r, dt = timed (fun () -> Engine.submit engine req) in
            admit_s := !admit_s +. dt;
            r
        | Ok (Protocol.Allocate areq) -> Some (Engine.allocate engine areq)
        | Ok (Protocol.Health _) | Error _ -> failwith "the benchmark generates only plan and allocate lines")
      parsed
  in
  (* The engine times each request's planning itself, in its always-on
     latency histogram; admission and waves are what the burst spends
     outside that. *)
  let planning () = Raqo_obs.Metrics.Histogram.sum (Engine.latency_histogram engine) in
  let planned_before = planning () in
  let drained, drain_s = timed (fun () -> Engine.drain engine) in
  let planning_s = planning () -. planned_before in
  let queued = ref (List.map snd drained) in
  let responses =
    List.map
      (function
        | Some r -> r
        | None ->
            let r = List.hd !queued in
            queued := List.tl !queued;
            r)
      immediate
  in
  let served =
    List.map (fun r -> (r, layer l "server.encode" (fun () -> Protocol.response_to_json r))) responses
  in
  let replayed = List.map (replay l ~mirror ~counting) parsed in
  let plans = List.length (List.filter (function Ok (Protocol.Request _) -> true | _ -> false) parsed) in
  if plans > 0 then add ~calls:plans l "server.admit_wave" (!admit_s +. drain_s -. planning_s);
  List.map2
    (fun (r, json) replay -> (r, json, Protocol.response_to_json replay))
    served replayed

(* One traced plan-large operation: the optimize call, then enumeration
   alone at fixed resources over the same instance. *)
let traced_plan l ~counting (instance : Gen.instance) =
  let opt, result = layer l "planner.optimize" (fun () -> plan_instance instance) in
  count_optimizer l ~counting opt;
  enumerate l ~kind:instance.planner ~seed:instance.seed ~model:(Raqo.Models.hive ()) instance.schema
    instance.relations;
  let response = plan_response instance result in
  let json = Protocol.response_to_json response in
  (response, json, json)
