(* Summary statistics and the per-operation correctness tally. *)

(* [percentile xs p] is the nearest-rank [p]-quantile of [xs], or [None]
   when fewer than 10 samples lie above it: a tail figure resting on a
   handful of samples moves from run to run with no change to the code. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    if n - rank < 10 then None else Some sorted.(rank - 1)
  end

(* The median of a non-empty list (the mean of the middle two for an even
   count). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Each operation is attempted once and succeeds only when its response is
   ok and byte-equal to the reference answer for the same request. *)
type tally = { mutable attempted : int; mutable succeeded : int }

let tally () = { attempted = 0; succeeded = 0 }

let record t ~ok ~reference ~response =
  t.attempted <- t.attempted + 1;
  if ok && String.equal reference response then t.succeeded <- t.succeeded + 1

let failed t = t.attempted - t.succeeded

let success_ratio t =
  if t.attempted = 0 then 0.0 else float_of_int t.succeeded /. float_of_int t.attempted
