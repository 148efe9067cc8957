module Kernel = Raqo_cost.Kernel

type strategy = Brute_force | Hill_climb

(* The cache behind [plan], and whether this planner owns it: an owned cache
   is per-planner state ([clear_cache] empties it); a borrowed one belongs to
   a resident server and is shared by every planner it lends it to. *)
type t = {
  conditions : Raqo_cluster.Conditions.t;
  strategy : strategy;
  pruned : bool;
  cache : Shared_plan_cache.t option;
  owned : bool;
  lookup : Shared_plan_cache.lookup;
  counters : Counters.t;
  use_kernel : bool;
  scratch : Kernel.scratch;
}

let create ?(strategy = Hill_climb) ?(pruned = false) ?(cache = true)
    ?(lookup = Shared_plan_cache.Exact) ?counters ?(kernel = true) ?shared_cache
    ?registry conditions =
  {
    conditions;
    strategy;
    pruned;
    cache =
      (match shared_cache with
      | Some _ -> shared_cache
      | None -> if cache then Some (Shared_plan_cache.create ()) else None);
    owned = Option.is_none shared_cache;
    lookup;
    counters = (match counters with Some k -> k | None -> Counters.create ?registry ());
    use_kernel = kernel;
    scratch = Kernel.create_scratch ();
  }

let conditions t = t.conditions
let with_conditions t conditions = { t with conditions }

let pruned t = t.pruned
let kernel_enabled t = t.use_kernel
let scratch t = t.scratch

(* Which implementation a search took, split kernel vs scalar so `raqo
   metrics` shows how often the compiled path actually runs. *)
let m_kernel_searches = Raqo_obs.Metrics.counter "raqo_resource_search_kernel_total"
let m_scalar_searches = Raqo_obs.Metrics.counter "raqo_resource_search_scalar_total"

(* Static span names: picked by branch, never built at runtime. *)
let span_name strategy ~pruned ~kernel =
  match (strategy, pruned, kernel) with
  | Hill_climb, _, true -> "resource/hill-climb-kernel"
  | Hill_climb, _, false -> "resource/hill-climb"
  | Brute_force, true, true -> "resource/pruned-kernel"
  | Brute_force, false, true -> "resource/sweep-kernel"
  | Brute_force, true, false -> "resource/pruned"
  | Brute_force, false, false -> "resource/brute-force"

let search ?start ?bound ?kernel t cost =
  let kernel = if t.use_kernel then kernel else None in
  let span =
    if not (Raqo_obs.Obs.enabled ()) then Raqo_obs.Trace.none
    else begin
      Raqo_obs.Metrics.Counter.inc
        (match kernel with Some _ -> m_kernel_searches | None -> m_scalar_searches);
      Raqo_obs.Trace.start
        (span_name t.strategy ~pruned:t.pruned ~kernel:(Option.is_some kernel))
    end
  in
  let result =
    match (t.strategy, kernel) with
  | Hill_climb, Some k -> Hill_climb.plan_kernel ~counters:t.counters ?start t.conditions k
  | Hill_climb, None -> Hill_climb.plan ~counters:t.counters ?start t.conditions cost
  | Brute_force, Some k ->
      (* Kernels compile only where region bounds exist (the paper feature
         space), so the pruned planner never needs the caller's [bound] here. *)
      if t.pruned then
        Brute_force.search_pruned_kernel ~counters:t.counters t.conditions ~kernel:k
          ~scratch:t.scratch
      else Brute_force.search_kernel ~counters:t.counters t.conditions ~kernel:k ~scratch:t.scratch
    | Brute_force, None -> begin
        match (t.pruned, bound) with
        | true, Some bound ->
            Brute_force.search_pruned ~counters:t.counters t.conditions ~bound cost
        | _, _ -> Brute_force.search ~counters:t.counters t.conditions cost
      end
  in
  Raqo_obs.Trace.finish span;
  result

let plan ?start ?bound ?kernel t ~key ~data_gb ~cost =
  match t.cache with
  | None -> search ?start ?bound ?kernel t cost
  | Some cache -> begin
      match Shared_plan_cache.find ~counters:t.counters cache ~key ~data_gb t.lookup with
      | Some cached ->
          let cached = Raqo_cluster.Conditions.clamp t.conditions cached in
          Counters.record_evaluation t.counters;
          let c =
            match (if t.use_kernel then kernel else None) with
            | Some k -> Kernel.predict_resources k cached
            | None -> cost cached
          in
          (cached, c)
      | None ->
          let resources, best = search ?start ?bound ?kernel t cost in
          Shared_plan_cache.insert ~counters:t.counters cache ~key ~data_gb resources;
          (resources, best)
    end

let counters t = t.counters
let reset_counters t = Counters.reset t.counters
let cache t = t.cache
let lookup t = t.lookup

(* Clearing is scoped to state this planner owns: a borrowed cross-query
   cache belongs to the server, so per-query resets must not wipe it. *)
let clear_cache t =
  match t.cache with
  | Some cache when t.owned -> Shared_plan_cache.clear cache
  | Some _ | None -> ()

let cache_size t = match t.cache with Some cache -> Shared_plan_cache.size cache | None -> 0
