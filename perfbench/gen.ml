(* The benchmark's seeded input generator. It draws from OCaml's own
   [Random.State], not from the program's RNG, so a change to the program
   cannot shift the inputs it is measured on. Every function here is a pure
   function of its seed. *)

type kind = Serve_hot | Serve_cold | Plan_large | Alloc

let kind_of_string = function
  | "serve-hot" -> Some Serve_hot
  | "serve-cold" -> Some Serve_cold
  | "plan-large" -> Some Plan_large
  | "alloc" -> Some Alloc
  | _ -> None

let kind_name = function
  | Serve_hot -> "serve-hot"
  | Serve_cold -> "serve-cold"
  | Plan_large -> "plan-large"
  | Alloc -> "alloc"

let kind_names = [ "serve-hot"; "serve-cold"; "plan-large"; "alloc" ]

(* ---------- TPC-H request bodies ---------- *)

(* A filter slot: column, comparison, the value range fresh constants are
   drawn from, and the fixed constants the recurring (hot) mix reuses. *)
type slot = { column : string; op : string; lo : float; hi : float; fixed : float list }

(* SQL templates over join-graph edges of the TPC-H catalog only (a
   predicate between tables with no edge is a [bad_request]). Every
   template carries at least one filter, so predicate pushdown applies to
   every SQL request, and projections leave some tables unreferenced so
   absorption and narrowing can fire. *)
type template = { select : string; from : string; joins : string; slots : slot list }

let templates =
  [|
    {
      select = "o_orderpriority, l_shipdate";
      from = "orders, lineitem";
      joins = "o_orderkey = l_orderkey";
      slots =
        [ { column = "o_totalprice"; op = "<"; lo = 20000.0; hi = 500000.0; fixed = [ 50000.0; 250000.0 ] } ];
    };
    {
      select = "o_orderkey, l_quantity";
      from = "customer, orders, lineitem";
      joins = "c_custkey = o_custkey and o_orderkey = l_orderkey";
      slots =
        [
          { column = "o_totalprice"; op = "<"; lo = 20000.0; hi = 500000.0; fixed = [ 100000.0; 400000.0 ] };
          { column = "c_acctbal"; op = ">"; lo = 100.0; hi = 9000.0; fixed = [ 0.0 ] };
        ];
    };
    {
      select = "p_partkey, s_acctbal";
      from = "part, partsupp, supplier, nation";
      joins = "p_partkey = ps_partkey and s_suppkey = ps_suppkey and s_nationkey = n_nationkey";
      slots = [ { column = "p_size"; op = "<"; lo = 2.0; hi = 49.0; fixed = [ 10.0; 30.0 ] } ];
    };
    {
      select = "o_orderkey, o_totalprice";
      from = "region, nation, customer, orders";
      joins = "r_regionkey = n_regionkey and n_nationkey = c_nationkey and c_custkey = o_custkey";
      slots =
        [
          { column = "o_totalprice"; op = ">"; lo = 20000.0; hi = 500000.0; fixed = [ 300000.0 ] };
          { column = "c_acctbal"; op = "<"; lo = 100.0; hi = 9000.0; fixed = [ 5000.0 ] };
        ];
    };
    {
      select = "*";
      from = "nation, supplier, partsupp, lineitem";
      joins = "n_nationkey = s_nationkey and s_suppkey = ps_suppkey and ps_partkey = l_partkey";
      slots = [ { column = "l_quantity"; op = "<"; lo = 2.0; hi = 49.0; fixed = [ 10.0; 25.0 ] } ];
    };
    {
      select = "c_custkey, ps_supplycost";
      from = "customer, orders, lineitem, partsupp, supplier, nation";
      joins =
        "c_custkey = o_custkey and o_orderkey = l_orderkey and ps_partkey = l_partkey \
         and ps_suppkey = s_suppkey and s_nationkey = n_nationkey";
      slots =
        [
          { column = "l_quantity"; op = "<"; lo = 2.0; hi = 49.0; fixed = [ 20.0 ] };
          { column = "o_totalprice"; op = "<"; lo = 20000.0; hi = 500000.0; fixed = [ 150000.0 ] };
        ];
    };
  |]

let relation_sets =
  [|
    [ "orders"; "lineitem" ];
    [ "customer"; "orders"; "lineitem" ];
    [ "part"; "partsupp"; "supplier"; "nation" ];
    [ "customer"; "orders"; "lineitem"; "partsupp"; "supplier"; "nation" ];
  |]

let planners = [| "selinger"; "bushy_dp"; "fast_randomized" |]

let pick_list st l = List.nth l (Random.State.int st (List.length l))

let sql_text t constants =
  let filters = List.map2 (fun s c -> Printf.sprintf "%s %s %s" s.column s.op c) t.slots constants in
  Printf.sprintf "select %s from %s where %s and %s" t.select t.from t.joins
    (String.concat " and " filters)

let sql st ~fresh t =
  let constant s =
    if fresh then
      (* Two decimals keep the text short while making each draw new. *)
      Printf.sprintf "%.2f" (s.lo +. Random.State.float st (s.hi -. s.lo))
    else Printf.sprintf "%g" (pick_list st s.fixed)
  in
  sql_text t (List.map constant t.slots)

let json_list l = "[" ^ String.concat "," (List.map (Printf.sprintf "%S") l) ^ "]"

(* Plan request [i] of a pool on the [engine] model, every field but the
   id. Its payload, planner and mode come from [i] alone: in each period of
   576 requests every one of the 24 payload slots (each SQL template twice,
   each relation set three times: half SQL, half relation lists) meets every
   planner and every one of eight modes, one of them a [qo] baseline. So
   every seed serves the same mix; the seed draws the order (see {!pool}),
   the filter constants and one of four planner seeds. *)
let plan_body st ~fresh ~engine i =
  let slot = i mod 24 and k = i / 24 in
  let payload =
    if slot < 12 then Printf.sprintf "\"sql\":%S" (sql st ~fresh templates.(slot mod 6))
    else Printf.sprintf "\"relations\":%s" (json_list relation_sets.((slot - 12) mod 4))
  in
  let planner = planners.(k mod 3) in
  let qo = k mod 8 = 7 in
  let seed = 42 + Random.State.int st 4 in
  Printf.sprintf "%s,\"planner\":%S,\"mode\":%S%s,\"seed\":%d,\"engine\":%S" payload planner
    (if qo then "qo" else "raqo")
    (if qo then ",\"containers\":20,\"gb\":4.0" else "")
    seed engine

(* ---------- allocation requests ---------- *)

let alloc_members = 24

(* Every fixed-constant SQL variant and every relation set: the recurring
   queries allocate requests are made of. *)
let member_payloads =
  let rec variants = function
    | [] -> [ [] ]
    | s :: rest -> List.concat_map (fun c -> List.map (fun cs -> c :: cs) (variants rest)) s.fixed
  in
  let sqls =
    Array.to_list templates
    |> List.concat_map (fun t ->
           List.map
             (fun cs -> Printf.sprintf "\"sql\":%S" (sql_text t (List.map (Printf.sprintf "%g") cs)))
             (variants t.slots))
  in
  Array.of_list
    (sqls @ List.map (fun r -> Printf.sprintf "\"relations\":%s" (json_list r)) (Array.to_list relation_sets))

(* The same 24 member queries in every request, with seeded arrivals,
   weights, tenants and search seed. The budget is set by the request's
   place in the pool, not by the seed, so every seed runs the same mix:
   each of 56 to 72 containers, low and high alternating so that every
   stretch of the cycle has about the same mean. The exact search, which
   [auto] picks at all of these budgets, grows steadily with the budget
   (about 30 to 110 ms on a 2-vCPU VM): one spread of times with no gap in
   it, whose median moves smoothly when the host runs faster or slower,
   where a single budget's narrow cluster of times would put the median on
   whichever speed held the larger part of the run. *)
let alloc_budgets = Array.init 17 (fun i -> if i mod 2 = 0 then 56 + (i / 2) else 72 - (i / 2))

let alloc_body st i =
  let member i =
    Printf.sprintf "{\"id\":\"m%02d\",%s,\"tenant\":\"t%d\",\"weight\":%d,\"arrival\":%.1f}" i
      member_payloads.(i mod Array.length member_payloads)
      (Random.State.int st 3) (1 + Random.State.int st 3) (Random.State.float st 60.0)
  in
  Printf.sprintf
    "\"queries\":[%s],\"budget\":%d,\"objective\":\"balanced\",\"search\":\"auto\",\"seed\":%d"
    (String.concat "," (List.init alloc_members member))
    alloc_budgets.(i mod Array.length alloc_budgets)
    (1 + Random.State.int st 1000)

(* ---------- large join instances ---------- *)

type instance = {
  name : string;
  schema : Raqo_catalog.Schema.t;
  relations : string list;
  planner : Raqo.Cost_based.planner_kind;
  seed : int;
}

(* A connected join graph on [n] tables: a random spanning tree plus
   [3n/10] extra edges, drawn from [topo]. *)
let topology topo n =
  let linked = Hashtbl.create 64 in
  let link i j = Hashtbl.replace linked (min i j, max i j) () in
  let tree =
    List.init (n - 1) (fun k ->
        let i = k + 1 and j = Random.State.int topo (k + 1) in
        link i j;
        (i, j))
  in
  let rec extras acc left =
    if left = 0 then List.rev acc
    else
      let i = Random.State.int topo n and j = Random.State.int topo n in
      if i = j || Hashtbl.mem linked (min i j, max i j) then extras acc left
      else begin
        link i j;
        extras ((i, j) :: acc) (left - 1)
      end
  in
  tree @ extras [] (n * 3 / 10)

(* Instance [i] of a run. Its planner, size, graph shape and planner seed
   depend on [i] alone, so every seed plans the same mix of enumeration
   work; the seed draws the tables' rows (100K-2M) and widths (100-200
   bytes), the paper's scalability setup. One instance in three runs DPsub
   at 12-13 relations, the others randomized enumeration at 16-20: the
   median then falls inside the randomized class and the 90th percentile
   inside the DPsub class, not on the boundary between them. *)
let instance st i =
  let planner, n =
    if i mod 3 = 0 then (Raqo.Cost_based.Bushy_dp, 12 + (i / 3 mod 2))
    else (Raqo.Cost_based.Fast_randomized, 16 + (i mod 5))
  in
  let rels =
    Array.init n (fun k ->
        Raqo_catalog.Relation.make ~name:(Printf.sprintf "t%d" k)
          ~rows:(float_of_int (100_000 + Random.State.int st 1_900_001))
          ~row_bytes:(float_of_int (100 + Random.State.int st 101)))
  in
  let edge (i, j) =
    let r k = rels.(k) in
    {
      Raqo_catalog.Join_graph.left = (r i).Raqo_catalog.Relation.name;
      right = (r j).Raqo_catalog.Relation.name;
      (* FK-style: one match per row of the larger side. *)
      selectivity = 1.0 /. Float.max (r i).Raqo_catalog.Relation.rows (r j).Raqo_catalog.Relation.rows;
    }
  in
  let graph = Raqo_catalog.Join_graph.make (List.map edge (topology (Random.State.make [| n; i |]) n)) in
  let schema = Raqo_catalog.Schema.make (Array.to_list rels) graph in
  {
    name = Printf.sprintf "g%d" i;
    schema;
    relations = Raqo_catalog.Schema.relation_names schema;
    planner;
    seed = 42 + (i mod 4);
  }

(* ---------- the operation stream ---------- *)

type op =
  | Line of { key : string; line : string }
      (** a protocol line whose id is [key], a digest of the rest of the
          line: equal requests have equal lines and so equal responses *)
  | Plan of { key : string; instance : instance }

let op_key = function Line { key; _ } | Plan { key; _ } -> key

let line ~prefix body =
  let key = String.sub (Digest.to_hex (Digest.string body)) 0 16 in
  Line { key; line = Printf.sprintf "{%s\"id\":\"%s\",%s}" prefix key body }

(* The engine model of a serve stream's requests: one stream in four is
   on spark, the rest on hive. A stream never mixes models, because the
   shared plan cache's key omits the model: a request served after another
   model's requests filled the cache can be answered with that model's
   resources, which differ from its one-shot answer. *)
let stream_engine stream = if stream mod 4 = 3 then "spark" else "hive"

(* Requests in one stream's pool. A run cycles through its pools, so every
   operation recurs several times in a run and is timed at each visit.
   Serve pools hold two or more periods of the request mix (see
   {!plan_body}), so the percentiles of burst times rest on a few hundred
   bursts. Hot pools draw from the fixed filter constants, so their cache
   entries all stay resident. Cold pools draw fresh constants for every
   request and are long enough that a cycle brings more new entries than
   the cache has room for (its keys reach 1024 entries): at steady state
   every cycle misses, inserts and evicts (one or two entries per request),
   the same entries on every pass. The alloc pool runs every budget six
   times. *)
let pool_size = function
  | Serve_hot -> 1152
  | Serve_cold -> 1536
  | Plan_large -> 120
  | Alloc -> 6 * Array.length alloc_budgets

(* [pool kind ~seed ~stream] is the operations of one of the workload's
   streams, in the order they are served. Streams of one seed are
   independent. *)
let pool kind ~seed ~stream =
  let st = Random.State.make [| seed; stream; Hashtbl.hash (kind_name kind) |] in
  let n = pool_size kind in
  match kind with
  | Serve_hot | Serve_cold ->
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      Array.map
        (fun i -> line ~prefix:"" (plan_body st ~fresh:(kind = Serve_cold) ~engine:(stream_engine stream) i))
        order
  | Alloc -> Array.init n (fun i -> line ~prefix:"\"op\":\"allocate\"," (alloc_body st i))
  | Plan_large ->
      Array.init n (fun i ->
          let instance = instance st i in
          Plan { key = instance.name; instance })
