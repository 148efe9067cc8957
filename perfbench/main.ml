(* The RAQO benchmark: one closed-loop client driving one workload for a
   fixed time, on the engine's default single planning domain, in one
   process. The client goes round a seeded cycle of operations again and
   again; latency percentiles and throughput are taken over each
   operation's median visit, timed at reference speed ({!Speed}).

   Untraced runs ([--trace 0]) print the end-to-end metrics. Traced runs
   ([--trace 1]) serve the same cycle and replay every request layer by
   layer ({!Replay}); they print the per-layer metrics. [--setup-only]
   measures the set-up alone and exits, so run.py can take a median over
   fresh processes (model training is memoized per process).

   The last line of standard output is the result object; the line before
   it carries the run metadata and the response fingerprint. *)

open Perfbench
open Ops
module Json = Raqo_server.Json
module Spc = Raqo_resource.Shared_plan_cache

(* ---------- workload shape ---------- *)

(* Serve clients pipeline bursts of 16 requests (admitted together, then
   planned in the engine's waves of 8); an operation is one burst. A
   burst's time sums 16 draws from a mix whose single-request times span
   two orders of magnitude (cache-answered Selinger vs randomized
   enumeration), so its percentiles sit inside one mode. *)
let burst = function Gen.Serve_hot | Gen.Serve_cold -> 16 | Gen.Plan_large | Gen.Alloc -> 1

(* Serve bursts go round-robin to four engine replicas, each with its own
   shared plan cache and its own input stream: three on hive, one on spark
   ({!Gen.stream_engine}). *)
let replicas = function
  | Gen.Serve_hot | Gen.Serve_cold -> 4
  | Gen.Plan_large | Gen.Alloc -> 1

(* Operations served, untimed, before the timed loop. The serve workloads
   run one whole cycle, so the loop starts at the cycle's steady state: hot
   caches filled, cold caches full and evicting, each visit doing the same
   work as the last. Alloc runs its first request, which fills the cache
   every request's members are planned from. Plan-large needs none: each
   operation starts from a fresh optimizer. *)
let warmup_ops kind ~cycle =
  match kind with Gen.Serve_hot | Gen.Serve_cold -> cycle | Gen.Alloc -> 1 | Gen.Plan_large -> 0

(* ---------- per-run state ---------- *)

type run = {
  kind : Gen.kind;
  engines : Engine.t array;  (** the replicas; unused by plan-large *)
  slots : (int * Gen.op list) array;
      (** one cycle of operations in serving order, each with its replica *)
  cycle : Gen.op array;  (** the cycle's requests in order *)
  visits : float list array;  (** per slot, its timed visits in seconds at reference speed *)
  measured : float list array;  (** the same in seconds as measured, for the record *)
  mutable ops : int;  (** timed operations; slot [ops mod slots] is next *)
  mutable requests : int;
  served : Buffer.t;
      (** response digests in order; request [i] is [cycle.(i mod cycle)],
          so the loop keeps 16 bytes per request *)
  mutable log_cost : float;
  mutable costs : int;
}

(* A cycle visits the streams' pools round-robin, one burst at a time. *)
let new_run kind ~seed engines =
  let r = replicas kind and b = burst kind in
  let pools = Array.init r (fun stream -> Gen.pool kind ~seed ~stream) in
  let slots =
    Array.init
      (r * Gen.pool_size kind / b)
      (fun j -> (j mod r, Array.to_list (Array.sub pools.(j mod r) (j / r * b) b)))
  in
  {
    kind;
    engines;
    slots;
    cycle = Array.of_list (List.concat_map snd (Array.to_list slots));
    visits = Array.make (Array.length slots) [];
    measured = Array.make (Array.length slots) [];
    ops = 0;
    requests = 0;
    served = Buffer.create 65536;
    log_cost = 0.0;
    costs = 0;
  }

(* Book-keeping for one request, outside any timed interval. Costs are
   taken over the first timed cycle, so their mean repeats exactly across
   runs of one seed. *)
let account run response json =
  if run.requests < Array.length run.cycle then begin
    match answer_cost response with
    | Some c when c > 0.0 ->
        run.log_cost <- run.log_cost +. log c;
        run.costs <- run.costs + 1
    | Some _ | None -> ()
  end;
  run.requests <- run.requests + 1;
  Buffer.add_string run.served (Digest.string json)

let lines ops =
  List.map (function Gen.Line { line; _ } -> line | Gen.Plan _ -> invalid_arg "lines") ops

let untraced_step run ~counting:_ (replica, ops) =
  match ops with
  | [ Gen.Plan { instance; _ } ] ->
      let response = plan_response instance (snd (plan_instance instance)) in
      [ (response, Protocol.response_to_json response) ]
  | _ -> serve_burst run.engines.(replica) (lines ops)

(* The closed loop: one client, the next operation sent when the previous
   one's answers are back, until [seconds] have passed and every slot of
   the cycle has been timed at least once. Each visit's time is scaled to
   reference speed ({!Speed}); a slot's time is the median of its
   visits.
   [step] is told whether the operation is in the first timed cycle, over
   which traced runs take their counts. *)
let closed_loop run ~seconds step =
  let n = Array.length run.slots in
  for j = 0 to warmup_ops run.kind ~cycle:n - 1 do
    ignore (step run ~counting:false run.slots.(j))
  done;
  let speed = Speed.create () in
  let t0 = now () in
  while since t0 < seconds || run.ops < n do
    let j = run.ops mod n in
    let results, dt = timed (fun () -> step run ~counting:(run.ops < n) run.slots.(j)) in
    run.visits.(j) <- Speed.scale speed dt :: run.visits.(j);
    run.measured.(j) <- dt :: run.measured.(j);
    Speed.tick speed;
    List.iter (fun (response, json) -> account run response json) results;
    run.ops <- run.ops + 1
  done

let cycle_requests run = Array.length run.cycle

(* Each slot's time: the median of its visits. *)
let slot_times ?(visits = fun run -> run.visits) run = Array.map Stats.median (visits run)

(* One pass over the cycle at each operation's time. *)
let pass_s ?visits run = Array.fold_left ( +. ) 0.0 (slot_times ?visits run)

(* ---------- correctness ---------- *)

type check = { tally : Stats.tally; distinct : int; references_ok : bool }

(* Every distinct request is answered once more on the one-shot path,
   outside the timed loop; each served response must be ok and byte-equal
   to it. A reference that is not ok means the generator produced a request
   the program rejects, and the run is then not correct. *)
let check run =
  let refs = Hashtbl.create 1024 in
  let references_ok = ref true in
  let tally = Stats.tally () in
  for i = 0 to run.requests - 1 do
    let op = run.cycle.(i mod cycle_requests run) in
    let key = Gen.op_key op in
    let ok, r =
      match Hashtbl.find_opt refs key with
      | Some x -> x
      | None ->
          let response = reference op in
          let json = Protocol.response_to_json response in
          if not (Protocol.is_ok response) then begin
            references_ok := false;
            Printf.eprintf "perfbench: the reference answer to %s is not ok: %s\n%!" key json
          end;
          let x = (Protocol.is_ok response, Digest.string json) in
          Hashtbl.add refs key x;
          x
    in
    Stats.record tally ~ok ~reference:r ~response:(Buffer.sub run.served (16 * i) 16)
  done;
  { tally; distinct = Hashtbl.length refs; references_ok = !references_ok }

(* The fingerprint: a digest of the first timed cycle's response digests,
   in order, so it repeats exactly however many operations fit in the
   time. *)
let fingerprint run = Digest.to_hex (Digest.string (Buffer.sub run.served 0 (16 * cycle_requests run)))

(* ---------- host facts ---------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
        | _ -> find ()
      in
      find ())

(* ---------- set-up ---------- *)

(* The program's own set-up: the engines' creation and first-use model
   training (memoized per process). Input generation is the benchmark's
   and is not counted. The time is reported at reference speed, with the
   reference loop timed right after the set-up. *)
let setup kind =
  let engines, dt =
    timed (fun () ->
        let engines = Array.init (replicas kind) (fun _ -> Engine.create ()) in
        ignore (Raqo.Models.hive ());
        (match kind with
        | Gen.Serve_hot | Gen.Serve_cold -> ignore (Raqo.Models.spark ())
        | Gen.Plan_large | Gen.Alloc -> ());
        engines)
  in
  (engines, Speed.scale (Speed.create ()) dt)

let shutdown = Array.iter Engine.shutdown

(* ---------- output ---------- *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

let finish ~meta ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])
  in
  print_endline (Json.to_string (Json.Obj meta));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

(* A percentile of the slots' times. *)
let percentile_ms ?visits run p name =
  match Stats.percentile (slot_times ?visits run) p with
  | Some s -> s *. 1000.0
  | None ->
      fail "a cycle of %d operations cannot support %s: it needs 10 beyond it" (Array.length run.slots)
        name

(* ---------- the untraced run ---------- *)

let end_to_end kind ~seed ~seconds =
  let engines, setup_s = setup kind in
  let run = new_run kind ~seed engines in
  Gc.full_major ();
  closed_loop run ~seconds untraced_step;
  let rss = peak_rss_mb () in
  shutdown engines;
  let p50 = percentile_ms run 0.5 "p50" and p90 = percentile_ms run 0.9 "p90" in
  let c = check run in
  if run.costs = 0 then fail "no request returned a costed answer";
  let success = Stats.success_ratio c.tally in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", success *. float_of_int (cycle_requests run) /. pass_s run, "1/s");
      ("p50_ms", p50, "ms");
      ("p90_ms", p90, "ms");
      ("success_ratio", success, "ratio");
      ("peak_rss_mb", rss, "MB");
      (* The cost model's estimate, in seconds: deterministic per seed. On
         plan-large it reads the same for every seed: the seed draws only
         table sizes, and at 100K-2M rows they leave the estimate unchanged. *)
      ("plan_cost_gmean_s", exp (run.log_cost /. float_of_int run.costs), "est_s");
    ]
  in
  (run, c, metrics)

(* ---------- the traced run ---------- *)

(* The shared-cache defect the serve streams are kept apart for
   ({!Gen.stream_engine}), measured on its own: each distinct raqo request
   of stream 0's pool is planned on one probe engine on hive and then on
   spark, and the share of those spark answers that differ from spark's
   one-shot answer is reported. It is 0 once the cache key carries the
   model. *)
let cross_model_mismatch kind ~seed =
  match kind with
  | Gen.Plan_large | Gen.Alloc -> 0.0
  | Gen.Serve_hot | Gen.Serve_cold ->
      let engine = Engine.create () in
      let seen = Hashtbl.create 256 in
      let probes = ref 0 and differ = ref 0 in
      Array.iter
        (function
          | Gen.Line { key; line } when not (Hashtbl.mem seen key) -> (
              Hashtbl.add seen key ();
              match Protocol.parse_line line with
              | Ok (Protocol.Request ({ mode = Protocol.Raqo; _ } as req)) ->
                  ignore (Engine.plan_request engine req);
                  let spark = { req with Protocol.engine = "spark" } in
                  let served = Protocol.response_to_json (Engine.plan_request engine spark) in
                  incr probes;
                  if not (String.equal served (Protocol.response_to_json (Engine.oneshot spark))) then
                    incr differ
              | _ -> ())
          | _ -> ())
        (Gen.pool kind ~seed ~stream:0);
      Engine.shutdown engine;
      float_of_int !differ /. float_of_int (max 1 !probes)

let traced kind ~seed ~seconds =
  (* The untraced half gives the per-operation time the tracing overhead is
     measured against: its own engines, the same cycle. *)
  let engines, _ = setup kind in
  let plain = new_run kind ~seed engines in
  Gc.full_major ();
  closed_loop plain ~seconds:(seconds /. 2.0) untraced_step;
  shutdown engines;
  let engines = Array.init (replicas kind) (fun _ -> Engine.create ()) in
  let mirrors = Array.init (replicas kind) (fun _ -> Engine.create ()) in
  let run = new_run kind ~seed engines in
  let counted = cycle_requests run in
  let l = Replay.layers () in
  (* Shared-cache counters summed over the mirrors: (lookups, entries,
     evictions), and the most shards any one of them uses. *)
  let cache_state () =
    Array.fold_left
      (fun (lookups, entries, evictions, shards) m ->
        let cache = Engine.cache m in
        ( lookups + Spc.hits cache + Spc.misses cache,
          entries + Spc.size cache,
          evictions + Spc.evictions cache,
          max shards (Array.fold_left (fun n s -> if s > 0 then n + 1 else n) 0 (Spc.shard_sizes cache)) ))
      (0, 0, 0, 0) mirrors
  in
  let at_start = ref (0, 0, 0, 0) and at_count = ref (0, 0, 0, 0) in
  (* Counts are taken over the first timed cycle. *)
  let step run ~counting (replica, ops) =
    if counting && run.ops = 0 then at_start := cache_state ();
    let results =
      match ops with
      | [ Gen.Plan { instance; _ } ] -> [ Replay.traced_plan l ~counting instance ]
      | _ ->
          Replay.traced_burst l ~engine:run.engines.(replica) ~mirror:mirrors.(replica) ~counting
            (lines ops)
    in
    if counting && run.ops = Array.length run.slots - 1 then at_count := cache_state ();
    List.map
      (fun (r, json, replayed) ->
        if not (String.equal json replayed) then l.Replay.mismatches <- l.Replay.mismatches + 1;
        (r, json))
      results
  in
  Gc.full_major ();
  closed_loop run ~seconds:(seconds /. 2.0) step;
  shutdown engines;
  shutdown mirrors;
  let c = check run in
  let overhead = pass_s run /. pass_s plain in
  let lookups0, _, evictions0, _ = !at_start and lookups1, entries, evictions1, shards = !at_count in
  let lookups = lookups1 - lookups0 and evictions = evictions1 - evictions0 in
  let per_request n = float_of_int n /. float_of_int counted in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  (* Allocation layers per allocate request (members are planned and
     surfaced 24 times per request). *)
  let per_allocation name =
    match (Hashtbl.find_opt l.Replay.time name, Hashtbl.find_opt l.Replay.time "alloc.search") with
    | Some (s, _), Some (_, n) -> s /. float_of_int n *. 1000.0
    | _ -> 0.0
  in
  let mean = Replay.mean_of l in
  let optimize_ms = mean "planner.optimize" 1000.0 and enum_ms = mean "planner.enum" 1000.0 in
  let metrics =
    [
      ("server.parse_us", mean "server.parse" 1e6, "us");
      ("server.encode_us", mean "server.encode" 1e6, "us");
      ("server.admit_wave_us", mean "server.admit_wave" 1e6, "us");
      ("sql.analyze_us", mean "sql.analyze" 1e6, "us");
      ("rewrite.apply_us", mean "rewrite.apply" 1e6, "us");
      ("rewrite.fired_ratio", ratio l.fired l.rewritten, "ratio");
      ("planner.enum_ms", enum_ms, "ms");
      ("planner.optimize_ms", optimize_ms, "ms");
      ("resource.search_ms", (if optimize_ms > 0.0 then optimize_ms -. enum_ms else 0.0), "ms");
      ("resource.cost_evaluations", per_request l.evaluations, "count/op");
      ("resource.invocations", per_request l.invocations, "count/op");
      ("resource.cache_hit_ratio", ratio l.private_hits l.private_lookups, "ratio");
      ("resource.cache_lookups_per_op", per_request lookups, "count/op");
      ("resource.cache_entries", float_of_int entries, "count");
      ("resource.cache_evictions", float_of_int evictions, "count");
      ("resource.cache_shards_used", float_of_int shards, "count");
      ("resource.cross_model_mismatch_ratio", cross_model_mismatch kind ~seed, "ratio");
      ("alloc.plan_ms", per_allocation "alloc.plan", "ms");
      ("alloc.surface_ms", per_allocation "alloc.surface", "ms");
      ("alloc.search_ms", mean "alloc.search" 1000.0, "ms");
      ("alloc.frontier_points", ratio l.frontier_points l.allocations, "count");
      ("alloc.exact_ratio", ratio l.exact l.allocations, "ratio");
      ( "alloc.dollars_gmean",
        (if l.allocations = 0 then 0.0 else exp (l.log_dollars /. float_of_int l.allocations)),
        "usd" );
      ("trace.overhead_ratio", overhead, "ratio");
    ]
  in
  if l.mismatches > 0 then
    Printf.eprintf "perfbench: %d replayed responses differ from the served ones\n%!" l.mismatches;
  (run, { c with references_ok = c.references_ok && l.mismatches = 0 }, metrics)

(* ---------- entry point ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Gen.kind_names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed-loop length");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " time the set-up alone and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match Gen.kind_of_string !workload with
    | Some k -> k
    | None -> fail "unknown workload %S (one of %s)" !workload (String.concat ", " Gen.kind_names)
  in
  if !setup_only then begin
    let engines, setup_s = setup kind in
    shutdown engines;
    print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Num setup_s) ]))
  end
  else begin
    let run, c, metrics =
      match !trace with
      | 0 -> end_to_end kind ~seed:!seed ~seconds:!seconds
      | 1 -> traced kind ~seed:!seed ~seconds:!seconds
      | n -> fail "--trace must be 0 or 1, not %d" n
    in
    let num n = Json.Num (float_of_int n) in
    let meta =
      [
        ("workload", Json.Str (Gen.kind_name kind));
        ("seed", num !seed);
        ("seconds", Json.Num !seconds);
        ("trace", num !trace);
        ("ops", num run.ops);
        ("requests", num run.requests);
        ("requests_per_op", num (burst kind));
        ("cycle_ops", num (Array.length run.slots));
        ("replicas", num (replicas kind));
        ("distinct_requests", num c.distinct);
        ("fingerprint", Json.Str (fingerprint run));
        ("fingerprint_requests", num (cycle_requests run));
        (* The timed figures as measured, before scaling to reference speed. *)
        ( "measured",
          let visits run = run.measured in
          Json.Obj
            [
              ("throughput_per_s", Json.Num (float_of_int (cycle_requests run) /. pass_s ~visits run));
              ("p50_ms", Json.Num (percentile_ms ~visits run 0.5 "p50"));
              ("p90_ms", Json.Num (percentile_ms ~visits run 0.9 "p90"));
            ] );
        ("jobs", num Engine.default_config.Engine.jobs);
        ("nproc", num (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
      ]
    in
    finish ~meta ~correct:c.references_ok ~attempted:c.tally.Stats.attempted
      ~failed:(Stats.failed c.tally) metrics
  end
