(* Monotonic nanosecond clock and the order statistics every workload
   reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now () = float_of_int (now_ns ()) *. 1e-9

(* Linear-interpolated quantile, [q] in [0, 1]; NaN on no samples. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5

let sum = Array.fold_left ( +. ) 0.0

let mean samples =
  if samples = [||] then Float.nan
  else sum samples /. float_of_int (Array.length samples)

(* Cost of one [now_ns] pair, subtracted from timed calls so a spawn
   timed at 150 ns does not carry the clock's own ~20 ns. *)
let pair_overhead_ns () =
  let reps = 200_000 in
  let total = ref 0 in
  for _ = 1 to reps do
    let t0 = now_ns () in
    let t1 = now_ns () in
    total := !total + (t1 - t0)
  done;
  float_of_int !total /. float_of_int reps

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0
