(* Tests for the benchmark's own parts: the seeded generator, the
   percentile rule and the correctness tally. *)

open Perfbench
module Engine = Raqo_server.Engine
module Protocol = Raqo_server.Protocol

let take ?(stream = 0) kind ~seed n =
  let pool = Gen.pool kind ~seed ~stream in
  List.init n (fun i ->
      match pool.(i) with
      | Gen.Line { key; line } -> (key, line)
      | Gen.Plan { key; instance } ->
          let rows =
            List.map
              (fun (r : Raqo_catalog.Relation.t) -> Printf.sprintf "%s:%h" r.name r.rows)
              (Raqo_catalog.Schema.relations instance.schema)
          in
          (key, String.concat "," rows))

let test_deterministic () =
  List.iter
    (fun name ->
      let kind = Option.get (Gen.kind_of_string name) in
      let a = take kind ~seed:7 60 and b = take kind ~seed:7 60 in
      Alcotest.(check (list (pair string string))) (name ^ ": same seed, same inputs") a b;
      Alcotest.(check bool) (name ^ ": another seed, other inputs") false (a = take kind ~seed:8 60))
    Gen.kind_names

(* Equal requests carry equal ids, so their responses can be compared byte
   for byte. *)
let test_equal_requests_equal_lines () =
  let ops = take Gen.Serve_hot ~seed:3 400 in
  List.iter
    (fun (k, line) ->
      List.iter
        (fun (k', line') -> if k = k' then Alcotest.(check string) "same key, same line" line line')
        ops)
    ops

(* Stream 3 is a spark stream. The alloc prefix holds every budget twice and
   the plan-large prefix every planner and size; a run checks the reference
   answer to each of its requests as well. *)
let test_requests_plan_ok () =
  let check_ok line =
    let response =
      match Protocol.parse_line line with
      | Ok (Protocol.Request req) -> Engine.oneshot req
      | Ok (Protocol.Allocate areq) -> Engine.oneshot_allocate areq
      | Ok (Protocol.Health _) -> Alcotest.fail "generated a health probe"
      | Error e -> Alcotest.fail (line ^ ": " ^ e)
    in
    if not (Protocol.is_ok response) then
      Alcotest.fail (line ^ " -> " ^ Protocol.response_to_json response)
  in
  List.iter
    (fun (kind, stream, n) -> List.iter (fun (_, line) -> check_ok line) (take ~stream kind ~seed:17 n))
    [
      (Gen.Serve_hot, 0, 120);
      (Gen.Serve_hot, 3, 60);
      (Gen.Serve_cold, 0, 120);
      (Gen.Serve_cold, 3, 60);
      (Gen.Alloc, 0, 2 * Array.length Gen.alloc_budgets);
    ];
  Array.iter
    (fun payload -> check_ok (Printf.sprintf "{\"id\":\"m\",%s}" payload))
    Gen.member_payloads;
  Array.iter
    (function
      | Gen.Plan { instance = i; _ } ->
          let opt =
            Raqo.Cost_based.create ~kind:i.planner ~seed:i.seed ~model:(Raqo.Models.hive ())
              ~conditions:Raqo_cluster.Conditions.default i.schema
          in
          if Raqo.Cost_based.optimize opt i.relations = None then Alcotest.fail (i.name ^ " is infeasible")
      | Gen.Line { line; _ } -> Alcotest.fail ("plan-large generated a line: " ^ line))
    (Array.sub (Gen.pool Gen.Plan_large ~seed:17 ~stream:0) 0 60)

let test_percentile_needs_ten_beyond () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option (float 0.0))) "p90 of 99 samples" None (Stats.percentile (xs 99) 0.9);
  Alcotest.(check (option (float 0.0))) "p90 of 100 samples" (Some 90.0) (Stats.percentile (xs 100) 0.9);
  Alcotest.(check (option (float 0.0))) "p50 of 19 samples" None (Stats.percentile (xs 19) 0.5);
  Alcotest.(check (option (float 0.0))) "p50 of 20 samples" (Some 10.0) (Stats.percentile (xs 20) 0.5);
  Alcotest.(check (option (float 0.0))) "p99 of 999 samples" None (Stats.percentile (xs 999) 0.99);
  Alcotest.(check (option (float 0.0))) "p99 of 1000 samples" (Some 990.0) (Stats.percentile (xs 1000) 0.99)

let test_median () =
  Alcotest.(check (float 0.0)) "odd count" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "one visit" 7.0 (Stats.median [ 7.0 ])

let test_mismatch_fails () =
  let served = {|{"id":"q1","status":"ok","plan":"(orders SMJ lineitem)","cost":82.06}|} in
  let oneshot = {|{"id":"q1","status":"ok","plan":"(orders SMJ lineitem)","cost":69.93}|} in
  let t = Stats.tally () in
  Stats.record t ~ok:true ~reference:oneshot ~response:oneshot;
  Stats.record t ~ok:true ~reference:oneshot ~response:served;
  Stats.record t ~ok:false ~reference:oneshot ~response:oneshot;
  Alcotest.(check int) "attempted" 3 t.Stats.attempted;
  Alcotest.(check int) "failed" 2 (Stats.failed t);
  Alcotest.(check (float 0.0)) "success ratio" (1.0 /. 3.0) (Stats.success_ratio t)

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "equal requests, equal lines" `Quick test_equal_requests_equal_lines;
          Alcotest.test_case "every generated request plans ok" `Quick test_requests_plan_ok;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile needs 10 samples beyond it" `Quick test_percentile_needs_ten_beyond;
          Alcotest.test_case "median of a slot's visits" `Quick test_median;
          Alcotest.test_case "a mismatched response counts as failed" `Quick test_mismatch_fails;
        ] );
    ]
