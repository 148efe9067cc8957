(** The resource-plan cache (paper Section VI-B3): for each cache key — a
    (cost model, sub-plan kind) pair — an in-memory sorted index from data
    characteristics (the smaller input size) to the best resource
    configuration previously computed for them ({!Ordered_index}, the
    paper's sorted array).

    One type serves every use. A planner that owns its cache touches it from
    one domain; a resident optimizer hands one cache to all its concurrent
    planners. Either way every operation runs under the cache's single
    mutex, so range lookups (nearest neighbor, weighted average) always see
    a consistent index.

    An optional [capacity] bounds the total entry count with LRU eviction.
    Hit/miss/eviction/insert counts are kept per cache. A cache created with
    a [registry] also mirrors them, when {!Raqo_obs.Obs.enabled} is on,
    under [raqo_shared_plan_cache_{hits,misses,evictions,inserts}_total] and
    the [raqo_shared_plan_cache_entries] gauge — distinct names from the
    per-planner {!Counters} mirrors, so `raqo metrics --prometheus` shows
    both the per-request and the shared-structure view. A cache created
    without one publishes nothing. *)

type t

(** Cache lookup policies, in the paper's terms. Thresholds are in the data
    characteristic's unit (GB of smaller input). *)
type lookup =
  | Exact  (** hit only on an exactly matching data characteristic *)
  | Nearest_neighbor of float
      (** hit on the closest entry within the threshold (paper: HC+Caching_NN) *)
  | Weighted_average of float
      (** inverse-distance-weighted average of the entries within the
          threshold (paper: HC+Caching_WA) *)

(** [create ()] builds an empty cache. [capacity] bounds the total entry
    count across keys: inserting past it evicts least-recently-used entries
    (recency is refreshed by inserts and by every lookup that consults the
    entry — exact hits, the nearest-neighbor match, and each
    weighted-average contributor). The default keeps the paper's unbounded
    behaviour, with no recency bookkeeping on the lookup path. [registry]
    receives the observability mirrors; without one there are none.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> ?registry:Raqo_obs.Metrics.registry -> unit -> t

(** [find t ~key ~data_gb lookup] queries the index for [key] (e.g.
    ["<model>/SMJ/join"]). Records a hit or miss in [t]'s own counters and,
    when given, in [counters]. *)
val find :
  ?counters:Counters.t ->
  t ->
  key:string ->
  data_gb:float ->
  lookup ->
  Raqo_cluster.Resources.t option

(** [insert t ~key ~data_gb resources] records a freshly planned
    configuration. Re-inserting an existing data characteristic overwrites.
    On a capacity-bounded cache, inserting a new entry past the bound evicts
    the least-recently-used entries, counted against [t] and, when given,
    [counters]. *)
val insert :
  ?counters:Counters.t -> t -> key:string -> data_gb:float -> Raqo_cluster.Resources.t -> unit

(** [clear t] empties the cache (the evaluation clears it between queries
    unless measuring across-query caching). *)
val clear : t -> unit

(** [size t] is the total number of entries across keys. *)
val size : t -> int

(** [shard_sizes t] is [[| size t |]]: the cache is one shard. *)
val shard_sizes : t -> int array

(** {2 Counters} — cumulative since creation, never reset by {!clear}. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val inserts : t -> int

(** {2 Verification hooks} *)

(** [keys t] lists the distinct cache keys, sorted. *)
val keys : t -> string list

(** [entries t ~key] is [key]'s index content in ascending data-characteristic
    order — the ground truth the verification layer checks lookups against. *)
val entries : t -> key:string -> (float * Raqo_cluster.Resources.t) list

(** [exact_epsilon ~data_gb] is the tolerance under which two data
    characteristics are treated as the same measurement (the weighted-average
    lookup returns such an entry outright instead of letting its near-zero
    distance swamp the inverse-distance weights). *)
val exact_epsilon : data_gb:float -> float
