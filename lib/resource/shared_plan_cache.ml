(* The one resource-plan cache: per-key sorted indexes, LRU stamps and the
   hit/miss/eviction/insert counts all sit behind one mutex. A planner that
   owns its cache pays an uncontended lock per operation; a resident server
   shares the same structure between its concurrent planners.

   LRU bookkeeping is engaged only for capacity-bounded caches: unbounded
   caches (the paper's behaviour) skip every stamp update. Recency is a
   monotone clock stamped per touch; eviction scans the stamp table for the
   minimum — O(size) per eviction, which keeps the sorted indexes free of
   intrusive links. *)

module Resources = Raqo_cluster.Resources
module M = Raqo_obs.Metrics

type lookup = Exact | Nearest_neighbor of float | Weighted_average of float

(* Registry mirrors, resolved once at [create]. *)
type mirrors = {
  g_hits : M.Counter.t;
  g_misses : M.Counter.t;
  g_evictions : M.Counter.t;
  g_inserts : M.Counter.t;
  g_entries : M.Gauge.t;
}

type t = {
  mutex : Mutex.t;
  indexes : (string, Resources.t Ordered_index.t) Hashtbl.t;
  capacity : int option;
  stamps : (string * float, int) Hashtbl.t;
  mutable clock : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable inserts : int;
  mirrors : mirrors option;
}

let create ?capacity ?registry () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Shared_plan_cache.create: capacity must be >= 1"
  | Some _ | None -> ());
  {
    mutex = Mutex.create ();
    indexes = Hashtbl.create 16;
    capacity;
    stamps = Hashtbl.create 16;
    clock = 0;
    size = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    inserts = 0;
    mirrors =
      Option.map
        (fun registry ->
          {
            g_hits = M.counter_in registry "raqo_shared_plan_cache_hits_total";
            g_misses = M.counter_in registry "raqo_shared_plan_cache_misses_total";
            g_evictions = M.counter_in registry "raqo_shared_plan_cache_evictions_total";
            g_inserts = M.counter_in registry "raqo_shared_plan_cache_inserts_total";
            g_entries = M.gauge_in registry "raqo_shared_plan_cache_entries";
          })
        registry;
  }

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

(* The mirrors to record into: only with observability on. *)
let live_mirrors t = if Raqo_obs.Obs.enabled () then t.mirrors else None

let touch t key data_gb =
  match t.capacity with
  | None -> ()
  | Some _ ->
      t.clock <- t.clock + 1;
      Hashtbl.replace t.stamps (key, data_gb) t.clock

(* Two data characteristics closer than this are the same measurement: the
   sizes flowing in here are products of float cardinality estimates, so keys
   that should be equal often differ in the last few ulps. *)
let exact_epsilon ~data_gb = 1e-9 *. Float.max 1.0 (Float.abs data_gb)

(* Lookups touch every stored entry they consult, so a bounded cache keeps an
   entry warm that answers nearest-neighbor or weighted-average probes even
   if its exact key is never queried. *)
let find_in_index t idx ~key ~data_gb lookup =
  match lookup with
  | Exact -> begin
      match Ordered_index.find_exact idx data_gb with
      | Some plan ->
          touch t key data_gb;
          Some plan
      | None -> None
    end
  | Nearest_neighbor threshold -> begin
      (* Predecessor/successor probes, not a linear fold over the whole
         radius band; same answer, ties to the lower key either way. *)
      match Ordered_index.nearest idx ~center:data_gb ~radius:threshold with
      | Some (k, plan) ->
          touch t key k;
          Some plan
      | None -> None
    end
  | Weighted_average threshold -> begin
      match Ordered_index.within idx ~center:data_gb ~radius:threshold with
      | [] -> None
      | close ->
          List.iter (fun (k, _) -> touch t key k) close;
          (* Inverse-distance weights; a (near-)exact entry wins outright.
             The epsilon guard matters: a key float-unequal to [data_gb] by a
             few ulps would otherwise get weight 1/d with d near 0, swamping
             every other entry (and overflowing to inf/nan on denormal
             distances, which poisons the whole average). *)
          let eps = exact_epsilon ~data_gb in
          let exact = List.find_opt (fun (k, _) -> Float.abs (k -. data_gb) <= eps) close in
          (match exact with
          | Some (_, plan) -> Some plan
          | None ->
              let wsum = ref 0.0 and c = ref 0.0 and gb = ref 0.0 in
              List.iter
                (fun (k, (plan : Resources.t)) ->
                  let w = 1.0 /. Float.max eps (Float.abs (k -. data_gb)) in
                  wsum := !wsum +. w;
                  c := !c +. (w *. float_of_int plan.containers);
                  gb := !gb +. (w *. plan.container_gb))
                close;
              Some
                (Resources.make
                   ~containers:(max 1 (int_of_float (Float.round (!c /. !wsum))))
                   ~container_gb:(!gb /. !wsum)))
    end

let find ?counters t ~key ~data_gb lookup =
  let result =
    locked t (fun () ->
        let result =
          match Hashtbl.find_opt t.indexes key with
          | None -> None
          | Some idx -> find_in_index t idx ~key ~data_gb lookup
        in
        (match result with
        | Some _ -> t.hits <- t.hits + 1
        | None -> t.misses <- t.misses + 1);
        result)
  in
  (match (counters, result) with
  | Some k, Some _ -> Counters.record_hit k
  | Some k, None -> Counters.record_miss k
  | None, _ -> ());
  (match (live_mirrors t, result) with
  | Some m, Some _ -> M.Counter.inc m.g_hits
  | Some m, None -> M.Counter.inc m.g_misses
  | None, _ -> ());
  result

(* Drop the least-recently-touched entry. The stamp table is authoritative
   for bounded caches: every insert stamps, so every resident entry has a
   stamp. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun entry stamp best ->
        match best with
        | Some (_, s) when s <= stamp -> best
        | Some _ | None -> Some (entry, stamp))
      t.stamps None
  in
  match victim with
  | None -> ()
  | Some (((key, data_gb) as entry), _) ->
      Hashtbl.remove t.stamps entry;
      (match Hashtbl.find_opt t.indexes key with
      | None -> ()
      | Some idx ->
          if Ordered_index.remove idx data_gb then t.size <- t.size - 1;
          if Ordered_index.size idx = 0 then Hashtbl.remove t.indexes key);
      t.evictions <- t.evictions + 1

(* Returns how many entries the insert evicted and the size it left. *)
let insert_locked t ~key ~data_gb resources =
  let idx =
    match Hashtbl.find_opt t.indexes key with
    | Some idx -> idx
    | None ->
        let idx = Ordered_index.create () in
        Hashtbl.add t.indexes key idx;
        idx
  in
  let before = Ordered_index.size idx in
  Ordered_index.insert idx data_gb resources;
  t.size <- t.size + Ordered_index.size idx - before;
  t.inserts <- t.inserts + 1;
  touch t key data_gb;
  let evictions = t.evictions in
  (match t.capacity with
  | None -> ()
  | Some cap ->
      while t.size > cap do
        evict_lru t
      done);
  (t.evictions - evictions, t.size)

let insert ?counters t ~key ~data_gb resources =
  let evicted, size = locked t (fun () -> insert_locked t ~key ~data_gb resources) in
  (match counters with
  | Some k ->
      for _ = 1 to evicted do
        Counters.record_eviction k
      done
  | None -> ());
  match live_mirrors t with
  | None -> ()
  | Some m ->
      M.Counter.inc m.g_inserts;
      if evicted > 0 then M.Counter.add m.g_evictions evicted;
      M.Gauge.set m.g_entries (float_of_int size)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.indexes;
      Hashtbl.reset t.stamps;
      t.clock <- 0;
      t.size <- 0);
  Option.iter (fun m -> M.Gauge.set m.g_entries 0.0) (live_mirrors t)

let size t = locked t (fun () -> t.size)
let shard_sizes t = [| size t |]
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let inserts t = t.inserts

let keys t =
  locked t (fun () -> List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.indexes []))

let entries t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.indexes key with
      | None -> []
      | Some idx -> Ordered_index.to_list idx)
