(* The program's operations as the benchmark drives them, and the one-shot
   reference answers they are checked against. *)

open Perfbench
module Engine = Raqo_server.Engine
module Protocol = Raqo_server.Protocol
module Cost_based = Raqo.Cost_based

let now = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* [timed f] is [f ()] and its duration in seconds. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, since t0)

let conditions = Raqo_cluster.Conditions.default

let bad_request message = Protocol.Rejected { id = None; reason = Protocol.Bad_request; message }

(* Admission of one line, as [Serve] does it: [Some response] is answered
   at once (allocations are planned synchronously at admission), [None]
   means the request was queued. *)
let admit engine line =
  match Protocol.parse_line line with
  | Error message -> Some (bad_request message)
  | Ok (Protocol.Health { id }) -> Some (Engine.health engine ~id)
  | Ok (Protocol.Allocate areq) -> Some (Engine.allocate engine areq)
  | Ok (Protocol.Request req) -> Engine.submit engine req

(* A pipelined burst, as [Serve.serve_lines] handles it without the file
   descriptors: admit every line, drain the queue in waves, encode every
   response. Responses come back in line order. *)
let serve_burst engine lines =
  let immediate = List.map (admit engine) lines in
  let queued = ref (List.map snd (Engine.drain engine)) in
  List.map
    (function
      | Some response -> response
      | None -> (
          match !queued with
          | response :: rest ->
              queued := rest;
              response
          | [] -> failwith "the queue drained fewer responses than it admitted"))
    immediate
  |> List.map (fun r -> (r, Protocol.response_to_json r))

let planned ~id plan cost rewrite =
  Protocol.Planned
    {
      id;
      plan = Format.asprintf "%a" Raqo_plan.Join_tree.pp_joint plan;
      cost;
      resources =
        List.map
          (fun (_, r) -> (r.Raqo_cluster.Resources.containers, r.Raqo_cluster.Resources.container_gb))
          (Raqo_plan.Join_tree.annotations plan);
      adaptive = None;
      rewrite;
    }

let infeasible id =
  Protocol.Rejected
    {
      id = Some id;
      reason = Protocol.Infeasible;
      message = "no feasible joint plan under the current cluster conditions";
    }

(* One plan-large operation: a fresh optimizer (cold private cache), as one
   [raqo plan] invocation. *)
let plan_instance (i : Gen.instance) =
  let opt =
    Cost_based.create ~kind:i.planner ~seed:i.seed ~model:(Raqo.Models.hive ()) ~conditions i.schema
  in
  (opt, Cost_based.optimize opt i.relations)

let plan_response (i : Gen.instance) = function
  | Some (plan, cost) -> planned ~id:i.name plan cost None
  | None -> infeasible i.name

(* The estimated cost of an answer: a plan's cost, or the makespan of the
   allocation chosen off the frontier. *)
let answer_cost = function
  | Protocol.Planned { cost; _ } -> Some cost
  | Protocol.Allocated { chosen; _ } -> Some chosen.Protocol.makespan
  | Protocol.Rejected _ | Protocol.Health_ok _ -> None

(* The one-shot answer: a fresh engine (fresh cache) per request. *)
let reference = function
  | Gen.Line { line; _ } -> (
      match Protocol.parse_line line with
      | Ok (Protocol.Request req) -> Engine.oneshot req
      | Ok (Protocol.Allocate areq) -> Engine.oneshot_allocate areq
      | Ok (Protocol.Health { id }) -> Engine.oneshot_health ~id ()
      | Error message -> bad_request message)
  | Gen.Plan { instance; _ } -> plan_response instance (snd (plan_instance instance))
