(** Heavy-tailed request traces for the sustained-throughput bench and the
    served-vs-oneshot smoke test. Arrivals reuse the Poisson/Pareto workload
    generator behind {!Raqo_cluster.Queue_sim} (the paper's Figure 1 queue);
    requests mix the TPC-H SQL evaluation queries, Section VII join-graph
    specs, the three planner kinds, both engine profiles (hive and spark),
    and an occasional query-only baseline. Deterministic in [seed]. *)

(** The SQL texts requests draw from; each resolves against the TPC-H
    catalog and plans [ok]. *)
val sql_pool : string array

(** [generate ?seed ?arrival_rate ~requests ()] draws [requests] arrivals
    ([arrival_rate] per second, default 2.0) paired with planning requests,
    in arrival order starting at time 0. *)
val generate :
  ?seed:int -> ?arrival_rate:float -> requests:int -> unit -> (float * Protocol.request) list

(** [to_lines trace] renders ["<arrival-seconds> <request-json>"] lines;
    {!parse_line} round-trips them (the CLI's [--gen-trace] format). *)
val to_lines : (float * Protocol.request) list -> string list

val parse_line : string -> (float * Protocol.request, string) result
