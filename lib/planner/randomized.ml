module Join_tree = Raqo_plan.Join_tree
module Schema = Raqo_catalog.Schema
module Rng = Raqo_util.Rng

type params = { iterations : int; max_no_improve : int }

let default_params = { iterations = 10; max_no_improve = 30 }

let joinable_sets schema a b =
  Raqo_catalog.Join_graph.edges_between (Schema.graph schema) a b <> []

(* Random bushy tree by randomized Kruskal: shuffle the join edges internal
   to the query and union fragments along them. Every merge crosses a real
   join edge, so the tree is cartesian-free; edge-order randomness gives
   shape randomness. Near-linear, which matters for 100-relation queries. *)
let random_shape rng schema relations =
  match relations with
  | [] -> invalid_arg "Randomized.random_shape: empty relation set"
  | _ ->
      let module M = Map.Make (String) in
      let in_query = List.fold_left (fun acc r -> M.add r () acc) M.empty relations in
      let edges =
        Array.of_list
          (List.filter
             (fun (e : Raqo_catalog.Join_graph.edge) ->
               M.mem e.left in_query && M.mem e.right in_query)
             (Raqo_catalog.Join_graph.edges (Schema.graph schema)))
      in
      Rng.shuffle rng edges;
      (* Union-find over relation names, each root holding its fragment. *)
      let parent = ref (List.fold_left (fun acc r -> M.add r r acc) M.empty relations) in
      let fragment =
        ref
          (List.fold_left
             (fun acc r -> M.add r (Join_tree.Scan r : Coster.shape) acc)
             M.empty relations)
      in
      let rec find r =
        let p = M.find r !parent in
        if p = r then r
        else begin
          let root = find p in
          parent := M.add r root !parent;
          root
        end
      in
      let merges = ref 0 in
      Array.iter
        (fun (e : Raqo_catalog.Join_graph.edge) ->
          let a = find e.left and b = find e.right in
          if a <> b then begin
            incr merges;
            let ta = M.find a !fragment and tb = M.find b !fragment in
            (* Random orientation so neither side is systematically outer. *)
            let merged =
              if Rng.bool rng then Join_tree.Join ((), ta, tb)
              else Join_tree.Join ((), tb, ta)
            in
            parent := M.add b a !parent;
            fragment := M.add a merged (M.remove b !fragment)
          end)
        edges;
      if !merges <> List.length relations - 1 then
        invalid_arg "Randomized.random_shape: relations not joinable";
      (match M.bindings !fragment with
      | [ (_, t) ] -> t
      | [] | _ :: _ :: _ -> assert false)

(* Paths identify nodes: [] is the root, 0 descends left, 1 right. *)
let rec join_paths prefix = function
  | Join_tree.Scan _ -> []
  | Join_tree.Join (_, l, r) ->
      List.rev prefix
      :: (join_paths (0 :: prefix) l @ join_paths (1 :: prefix) r)

let rec subtree_at t path =
  match (t, path) with
  | _, [] -> t
  | Join_tree.Join (_, l, _), 0 :: rest -> subtree_at l rest
  | Join_tree.Join (_, _, r), 1 :: rest -> subtree_at r rest
  | Join_tree.Scan _, _ :: _ -> invalid_arg "Randomized.subtree_at: path into a leaf"
  | Join_tree.Join _, _ :: _ -> invalid_arg "Randomized.subtree_at: bad path step"

let rec replace_at t path replacement =
  match (t, path) with
  | _, [] -> replacement
  | Join_tree.Join (a, l, r), 0 :: rest -> Join_tree.Join (a, replace_at l rest replacement, r)
  | Join_tree.Join (a, l, r), 1 :: rest -> Join_tree.Join (a, l, replace_at r rest replacement)
  | Join_tree.Scan _, _ :: _ -> invalid_arg "Randomized.replace_at: path into a leaf"
  | Join_tree.Join _, _ :: _ -> invalid_arg "Randomized.replace_at: bad path step"

(* Every join must have at least one edge crossing it. *)
let rec valid_shape schema = function
  | Join_tree.Scan _ -> true
  | Join_tree.Join (_, l, r) ->
      joinable_sets schema (Join_tree.relations l) (Join_tree.relations r)
      && valid_shape schema l && valid_shape schema r

let commute rng shape =
  let paths = Array.of_list (join_paths [] shape) in
  if Array.length paths = 0 then None
  else begin
    let path = Rng.pick rng paths in
    match subtree_at shape path with
    | Join_tree.Join (a, l, r) -> Some (replace_at shape path (Join_tree.Join (a, r, l)))
    | Join_tree.Scan _ -> None
  end

(* (A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C), and its mirror. *)
let associate rng shape =
  let paths = Array.of_list (join_paths [] shape) in
  if Array.length paths = 0 then None
  else begin
    let path = Rng.pick rng paths in
    match subtree_at shape path with
    | Join_tree.Join (a, Join_tree.Join (b, x, y), z) when Rng.bool rng ->
        Some (replace_at shape path (Join_tree.Join (a, x, Join_tree.Join (b, y, z))))
    | Join_tree.Join (a, x, Join_tree.Join (b, y, z)) ->
        Some (replace_at shape path (Join_tree.Join (a, Join_tree.Join (b, x, y), z)))
    | Join_tree.Join (a, Join_tree.Join (b, x, y), z) ->
        Some (replace_at shape path (Join_tree.Join (a, x, Join_tree.Join (b, y, z))))
    | Join_tree.Join (_, Join_tree.Scan _, Join_tree.Scan _) | Join_tree.Scan _ -> None
  end

(* Swap two disjoint subtrees (neither a prefix of the other). *)
let exchange rng shape =
  let rec all_paths prefix = function
    | Join_tree.Scan _ -> [ List.rev prefix ]
    | Join_tree.Join (_, l, r) ->
        List.rev prefix :: (all_paths (0 :: prefix) l @ all_paths (1 :: prefix) r)
  in
  let paths = Array.of_list (List.filter (fun p -> p <> []) (all_paths [] shape)) in
  if Array.length paths < 2 then None
  else begin
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: xs, y :: ys -> x = y && is_prefix xs ys
      | _ :: _, [] -> false
    in
    let p1 = Rng.pick rng paths and p2 = Rng.pick rng paths in
    if is_prefix p1 p2 || is_prefix p2 p1 then None
    else begin
      let s1 = subtree_at shape p1 and s2 = subtree_at shape p2 in
      let shape = replace_at shape p1 s2 in
      Some (replace_at shape p2 s1)
    end
  end

let mutate rng schema shape =
  let mutation =
    match Rng.int rng 3 with
    | 0 -> commute rng shape
    | 1 -> associate rng shape
    | _ -> exchange rng shape
  in
  match mutation with
  | Some shape' when valid_shape schema shape' && Join_tree.valid shape' -> Some shape'
  | Some _ | None -> None

(* Iterative improvement parameterized over tree costing, so the string and
   mask-based costing seams share one search loop (and one RNG stream:
   structure generation stays string-based either way, which is what makes
   the two seams produce identical shapes for a fixed seed). *)
let improve_costed ~params rng schema cost shape0 =
  let best = ref (cost shape0) in
  let shape = ref shape0 in
  let stale = ref 0 in
  while !stale < params.max_no_improve do
    match mutate rng schema !shape with
    | None -> incr stale
    | Some candidate -> begin
        let costed = cost candidate in
        match (costed, !best) with
        | (Some (_, c) as improved), Some (_, b) when c < b ->
            best := improved;
            shape := candidate;
            stale := 0
        | (Some _ as improved), None ->
            best := improved;
            shape := candidate;
            stale := 0
        | Some _, Some _ | None, _ -> incr stale
      end
  done;
  !best

(* Each restart gets its own generator split off the caller's, all splits
   drawn upfront in restart order, so the restarts are independent of one
   another and of how many draws each one makes. *)
let restart_rngs rng n = List.init n (fun _ -> Rng.split rng)

let m_restarts = Raqo_obs.Metrics.counter "raqo_randomized_restarts_total"

(* One span per restart, nested under the planner span that runs it. *)
let run_restart ~params rng coster schema relations =
  let span = Raqo_obs.Trace.start "randomized/restart" in
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_restarts;
  let shape = random_shape rng schema relations in
  let result = improve_costed ~params rng schema (Coster.cost_tree coster) shape in
  Raqo_obs.Trace.finish span;
  result

let local_optima ?(params = default_params) rng coster schema relations =
  if relations = [] then invalid_arg "Randomized.local_optima: empty relation set";
  List.filter_map
    (fun restart_rng -> run_restart ~params restart_rng coster schema relations)
    (restart_rngs rng params.iterations)

let pick_best optima =
  List.fold_left
    (fun best ((_, c) as cand) ->
      match best with
      | Some (_, b) when b <= c -> best
      | Some _ | None -> Some cand)
    None optima

let optimize ?(params = default_params) rng coster schema relations =
  pick_best (local_optima ~params rng coster schema relations)

(* Mask-based variants: the search (shape generation, mutations, RNG
   splitting) is shared with the string seam above; only tree costing goes
   through the masked coster, so for a fixed seed the restarts visit the
   same shapes and the results are bit-identical when the costers agree. *)

module Interned = Raqo_catalog.Interned

let run_restart_masked ~params rng m ctx =
  let span = Raqo_obs.Trace.start "randomized/restart" in
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_restarts;
  let schema = Interned.schema ctx in
  let shape = random_shape rng schema (Interned.relations ctx) in
  let result = improve_costed ~params rng schema (Coster.cost_tree_masked m ctx) shape in
  Raqo_obs.Trace.finish span;
  result

let local_optima_masked ?(params = default_params) rng m ctx =
  List.filter_map
    (fun restart_rng -> run_restart_masked ~params restart_rng m ctx)
    (restart_rngs rng params.iterations)

let optimize_masked ?(params = default_params) rng m ctx =
  pick_best (local_optima_masked ~params rng m ctx)
