(* The host's speed, tracked by a reference loop of the benchmark's own.

   On a shared VM the same operation runs up to 1.8 times slower for tens
   of seconds at a time, in wall and CPU time alike (no steal time shows),
   so raw times of two runs of one build differ by the host's phase, not
   by the program. The reference loop is fixed code that does the kind of
   work the program does; timed beside the operations, it slows with the
   host. An operation's time is reported at reference speed: scaled by
   [reference_s] over the loop's time measured next to it. A change to the
   program does not move the loop, so it moves the scaled times as it moves
   the raw ones. *)

let now = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* The loop's time at reference speed: about what it takes on a 2-vCPU
   Xeon VM when no neighbour slows the host. *)
let reference_s = 0.001

(* The loop allocates short-lived strings, a hash table, an array and a
   list, as the program's requests do: a loop that allocates nothing
   tracked the host's slow phases far worse (serve-hot throughput ranged
   over 0.25 of its median in five runs, against 0.04 with this loop). It shares the minor heap with the program, so only a change to
   the collector's settings could move both. *)
let reference_loop () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 1999 do
    Hashtbl.replace h (Printf.sprintf "k%d" (i * 7919 mod 10007)) (float_of_int i)
  done;
  let a = Array.init 2000 (fun i -> sin (float_of_int i)) in
  Array.sort Float.compare a;
  let l = List.sort compare (List.init 2000 (fun i -> i * 31 land 1023)) in
  ignore (Sys.opaque_identity (Hashtbl.length h + List.fold_left ( + ) 0 l, a))

(* The last three loop times and when the last was taken. *)
type t = { times : float array; mutable taken : int; mutable at : int64 }

let sample t =
  let t0 = now () in
  reference_loop ();
  t.times.(t.taken mod Array.length t.times) <- since t0;
  t.taken <- t.taken + 1;
  t.at <- now ()

let create () =
  let t = { times = Array.make 3 0.0; taken = 0; at = 0L } in
  for _ = 1 to Array.length t.times do
    sample t
  done;
  t

(* Samples the loop again once 20 ms have passed since the last sample,
   so the loop takes about a twentieth of the run. *)
let tick t = if since t.at >= 0.02 then sample t

(* [scale t dt] is [dt] seconds taken now, at reference speed: the median
   of the last three loop times damps a single loop's jitter. *)
let scale t dt =
  let s = Array.copy t.times in
  Array.sort Float.compare s;
  dt *. reference_s /. s.(1)
