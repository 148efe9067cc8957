(** Resource-planning instrumentation: the paper's evaluation reports the
    number of resource configurations explored (cost-model evaluations) and
    cache effectiveness, so every search threads one of these.

    Counters are {!Raqo_obs.Metrics.Counter} shards underneath (lock-free
    per-domain cells merged on read): one instrument can be shared by
    planners running on different domains (batched workload planning,
    server waves) without losing increments. Reads ({!cost_evaluations} etc.)
    are merged snapshots — exact once the parallel section has joined,
    approximate while it is in flight.

    When {!Raqo_obs.Obs.enabled} is on, every record also feeds a metrics
    registry ([raqo_cost_evaluations_total],
    [raqo_plan_cache_{hits,misses,evictions}_total],
    [raqo_planner_invocations_total]), so per-instrument views and the
    registry stay one source of truth. The mirror handles are resolved once
    at {!create} from [?registry] — the process-wide default unless a
    resident server threads its own. *)

type t

val create : ?registry:Raqo_obs.Metrics.registry -> unit -> t
val reset : t -> unit

(** {2 Reading} *)

val cost_evaluations : t -> int
    (** resource configurations whose cost was computed *)

val cache_hits : t -> int
val cache_misses : t -> int

val cache_evictions : t -> int
    (** entries dropped by a capacity-bounded plan cache (LRU) *)

val planner_invocations : t -> int
    (** resource-planning calls (one per costed sub-plan) *)

(** {2 Recording} *)

val record_evaluation : t -> unit
val record_evaluations : t -> int -> unit
val record_hit : t -> unit
val record_miss : t -> unit
val record_eviction : t -> unit
val record_invocation : t -> unit

(** [add ~into t] accumulates [t] into [into]. *)
val add : into:t -> t -> unit

val pp : Format.formatter -> t -> unit
