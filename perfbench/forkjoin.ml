(* forkjoin: fib without a cutoff on a 2-domain pool, ticker off.

   Every call spawns F(n+1)-1 fibers and joins them all, so the run is
   nothing but lib/fiber's spawn, deque push/pop/steal-batch,
   await/leapfrog, fiber recycling and idle park/wake.  It bypasses the
   ticker, the external submit path and the simulator.  The seed is not
   used: the input is the fixed n. *)

let n = 20

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let expected = fib_seq n

(* Spawns of one [fib n]: S(n) = 1 + S(n-1) + S(n-2), S(0) = S(1) = 0. *)
let spawns_per_call = fib_seq (n + 1) - 1

let domains = 2

let warmup_calls = 30

(* Set-ups per run; [setup_s] is their median. *)
let n_setups = 5

let rec fib n =
  if n < 2 then n
  else
    let a = Fiber.spawn (fun () -> fib (n - 1)) in
    let b = fib (n - 2) in
    Fiber.await a + b

let spawned pool =
  List.fold_left (fun acc st -> acc + st.Fiber.st_spawned) 0 (Fiber.stats pool)

(* Call [f n] back to back inside one [Fiber.run] for [seconds] (at
   least once).  Each call's value and its spawn count are checked
   between calls, outside the timed interval. *)
let calls pool ~seconds f =
  Fiber.run pool (fun () ->
      let lat = ref [] and bad = ref 0 in
      let stop = Clock.now () +. seconds in
      while !lat = [] || Clock.now () < stop do
        let s0 = spawned pool in
        let t0 = Clock.now () in
        let v = f n in
        let dt = Clock.now () -. t0 in
        if v <> expected || spawned pool - s0 <> spawns_per_call then incr bad;
        lat := dt :: !lat
      done;
      let lat = Array.of_list !lat in
      Report.check ~attempted:(Array.length lat) ~failed:!bad;
      lat)

let make_pool ?preempt_interval ?(telemetry = false) d =
  Fiber.make
    (Fiber.Config.make ~domains:d ?preempt_interval ~telemetry
       ~telemetry_every:1 ())

(* Set-up: pool build plus warm-up calls. *)
let setup ?preempt_interval ?telemetry () =
  let t0 = Clock.now () in
  let pool = make_pool ?preempt_interval ?telemetry domains in
  Fiber.run pool (fun () ->
      for _ = 1 to warmup_calls do
        ignore (fib n)
      done);
  (Clock.now () -. t0, pool)

let run ~seconds =
  let since = Report.mark () in
  Report.heading
    (Printf.sprintf "forkjoin: fib %d, %d spawns per call, %d domains, ticker off"
       n spawns_per_call domains);
  let setups = Array.make n_setups 0.0 in
  let pool = ref None in
  for i = 0 to n_setups - 1 do
    (* One pool at a time, so the run never holds more domains than it
       measures with. *)
    Option.iter Fiber.shutdown !pool;
    let dt, p = setup () in
    setups.(i) <- dt;
    pool := Some p
  done;
  let pool = Option.get !pool in
  let lat = calls pool ~seconds fib in
  Fiber.shutdown pool;
  let k = Array.length lat in
  Report.metric ~n:n_setups "setup_s" "s" (Clock.median setups);
  Report.metric "top_heap_mb" "MB" (Clock.heap_mb ());
  (* Rate of the median call: a call the host stalled for milliseconds
     (steal time on a shared VM) moves a mean, not the median. *)
  Report.metric ~n:(k * spawns_per_call) "tasks_per_s" "1/s"
    (float_of_int spawns_per_call /. Clock.median lat);
  Report.note ~n:k "call_p50_s" "s" (Clock.median lat);
  Report.note ~n:k "call_p99_s" "s" (Clock.quantile lat 0.99);
  Report.error_rate since

(* ------------------------------------------------------------------ *)
(* Traced run. *)

(* Per-domain accumulators for the timed spawn/await calls: each domain
   writes only its own record (a fiber runs on one domain between two
   effects), and the records are read after the pool is shut down. *)
type acc = {
  mutable spawn_ns : int;
  mutable spawns : int;
  mutable ready_ns : int;
  mutable ready : int;
  mutable blocked : int;
  awaits : Preempt_core.Metrics.Hist.t;  (* every await, seconds *)
}

let new_key () =
  let all = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let a =
          {
            spawn_ns = 0;
            spawns = 0;
            ready_ns = 0;
            ready = 0;
            blocked = 0;
            awaits = Preempt_core.Metrics.Hist.create ();
          }
        in
        let rec push () =
          let l = Atomic.get all in
          if not (Atomic.compare_and_set all l (a :: l)) then push ()
        in
        push ();
        a)
  in
  (key, all)

let rec tfib key n =
  if n < 2 then n
  else begin
    let t0 = Clock.now_ns () in
    let a = Fiber.spawn (fun () -> tfib key (n - 1)) in
    let t1 = Clock.now_ns () in
    let acc = Domain.DLS.get key in
    acc.spawn_ns <- acc.spawn_ns + (t1 - t0);
    acc.spawns <- acc.spawns + 1;
    let b = tfib key (n - 2) in
    let ready = Fiber.is_resolved a in
    let t2 = Clock.now_ns () in
    let va = Fiber.await a in
    let t3 = Clock.now_ns () in
    (* The await may have resumed on the other domain. *)
    let acc = Domain.DLS.get key in
    if ready then begin
      acc.ready_ns <- acc.ready_ns + (t3 - t2);
      acc.ready <- acc.ready + 1
    end
    else acc.blocked <- acc.blocked + 1;
    Preempt_core.Metrics.Hist.add acc.awaits (float_of_int (t3 - t2) *. 1e-9);
    va + b
  end

(* Cumulative (parks, wakes) over all workers from a telemetry sample
   taken after this call: wait for one fresh sweep per worker.  Called
   between [Fiber.run]s, so the ticker can take domain 0. *)
let parks_wakes pool =
  let tel = Fiber.telemetry pool in
  let module T = Preempt_core.Telemetry in
  let s0 = T.total_samples tel in
  let deadline = Clock.now () +. 2.0 in
  while T.total_samples tel < s0 + (2 * T.n_workers tel) && Clock.now () < deadline do
    Unix.sleepf 0.002
  done;
  List.fold_left
    (fun (p, w) wid ->
      match T.latest tel ~worker:wid with
      | Some pt -> (p + pt.T.p_parks, w + pt.T.p_wakes)
      | None -> (p, w))
    (0, 0)
    (List.init (T.n_workers tel) Fun.id)

type counters = {
  c_steals : int;
  c_batch : int;
  c_leapfrog : int;
  c_recycled : int;
  c_miss : int;
}

let counters pool =
  List.fold_left
    (fun c st ->
      Fiber.
        {
          c_steals = c.c_steals + st.st_local_steals + st.st_overflow_in;
          c_batch = c.c_batch + st.st_batch_stolen;
          c_leapfrog = c.c_leapfrog + st.st_leapfrog;
          c_recycled = c.c_recycled + st.st_recycled;
          c_miss = c.c_miss + st.st_recycle_miss;
        })
    { c_steals = 0; c_batch = 0; c_leapfrog = 0; c_recycled = 0; c_miss = 0 }
    (Fiber.stats pool)

let counters_since c0 c1 =
  {
    c_steals = c1.c_steals - c0.c_steals;
    c_batch = c1.c_batch - c0.c_batch;
    c_leapfrog = c1.c_leapfrog - c0.c_leapfrog;
    c_recycled = c1.c_recycled - c0.c_recycled;
    c_miss = c1.c_miss - c0.c_miss;
  }

let traced ~seconds =
  Report.heading
    (Printf.sprintf "forkjoin (traced): fib %d, %d spawns per call" n
       spawns_per_call);
  let per_task total calls = total /. float_of_int (calls * spawns_per_call) in
  (* Baselines for the d2 anomaly: plain sequential function and a
     1-domain pool, same n. *)
  let seq =
    let lat = ref [] in
    let stop = Clock.now () +. (0.04 *. seconds) in
    while !lat = [] || Clock.now () < stop do
      let t0 = Clock.now () in
      let v = fib_seq n in
      lat := (Clock.now () -. t0) :: !lat;
      Report.check ~attempted:1 ~failed:(if v = expected then 0 else 1)
    done;
    Clock.median (Array.of_list !lat)
  in
  let d1 =
    let pool = make_pool 1 in
    ignore (calls pool ~seconds:0.02 fib);
    let lat = calls pool ~seconds:(0.08 *. seconds) fib in
    Fiber.shutdown pool;
    Clock.median lat
  in
  (* Untraced 2-domain phase: wall time, runtime counters and GC
     counts.  The pool is shut down before the GC read so every
     domain's allocation has been folded into the totals. *)
  let d2, c, gc_minor, gc_major, gc_minors, d2_calls =
    let _, pool = setup () in
    let c0 = counters pool in
    let g0 = Gc.quick_stat () in
    let lat = calls pool ~seconds:(0.12 *. seconds) fib in
    let c1 = counters pool in
    Fiber.shutdown pool;
    let g1 = Gc.quick_stat () in
    let k = Array.length lat in
    ( Clock.median lat,
      counters_since c0 c1,
      per_task (g1.Gc.minor_words -. g0.Gc.minor_words) k,
      per_task (g1.Gc.major_words -. g0.Gc.major_words) k,
      per_task (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)) k
      *. 1000.0,
      k )
  in
  (* Traced 2-domain phase: every spawn and await timed from here, and
     the ticker armed (it does nothing to fib, which takes no safe
     point) so telemetry can sample parks and wakes. *)
  let clock_ns = Clock.pair_overhead_ns () in
  let key, all = new_key () in
  let d2t, parks, wakes, t_calls =
    let _, pool = setup ~preempt_interval:0.01 ~telemetry:true () in
    let p0, w0 = parks_wakes pool in
    let lat = calls pool ~seconds:(0.12 *. seconds) (tfib key) in
    let p1, w1 = parks_wakes pool in
    Fiber.shutdown pool;
    let k = Array.length lat in
    (Clock.median lat, p1 - p0, w1 - w0, k)
  in
  let accs = Atomic.get all in
  let total f = List.fold_left (fun s a -> s + f a) 0 accs in
  let spawns = total (fun a -> a.spawns) in
  let ready = total (fun a -> a.ready) and blocked = total (fun a -> a.blocked) in
  let awaits =
    List.fold_left
      (fun h a -> Preempt_core.Metrics.Hist.merge h a.awaits)
      (Preempt_core.Metrics.Hist.create ())
      accs
  in
  let net total_ns k =
    Float.max 0.0 ((float_of_int total_ns /. float_of_int (max 1 k)) -. clock_ns)
  in
  let spawn_ns = net (total (fun a -> a.spawn_ns)) spawns in
  let ready_ns = net (total (fun a -> a.ready_ns)) ready in
  let await_ns =
    Float.max 0.0
      ((Preempt_core.Metrics.Hist.mean awaits *. 1e9) -. clock_ns)
  in
  let await_p99_ns =
    if Preempt_core.Metrics.Hist.count awaits = 0 then Float.nan
    else Preempt_core.Metrics.Hist.quantile awaits 99.0 *. 1e9
  in
  let ktasks_d2 = float_of_int (d2_calls * spawns_per_call) /. 1000.0 in
  let ktasks_t = float_of_int (t_calls * spawns_per_call) /. 1000.0 in
  let steals = max 1 c.c_steals in
  let seq_task_ns = seq /. float_of_int spawns_per_call *. 1e9 in
  let d1_task_ns = d1 /. float_of_int spawns_per_call *. 1e9 in
  let d2_task_ns = d2 /. float_of_int spawns_per_call *. 1e9 in
  if spawns <> t_calls * spawns_per_call then
    Report.flag "timed spawns %d <> %d calls x %d" spawns t_calls spawns_per_call;
  Report.metric ~n:spawns "fiber.spawn_ns" "ns" spawn_ns;
  Report.metric ~n:(ready + blocked) "fiber.await_ns" "ns" await_ns;
  Report.metric ~n:(ready + blocked) "fiber.await_p99_ns" "ns" await_p99_ns;
  Report.metric "fiber.await_blocked_frac" "frac"
    (float_of_int blocked /. float_of_int (max 1 (ready + blocked)));
  (* The 2-domain anomaly, with the counters that should explain it
     printed right beside it. *)
  Report.metric "fiber.task_overhead_ns" "ns" (d1_task_ns -. seq_task_ns);
  Report.metric "fiber.d2_over_d1" "ratio" (d2 /. d1);
  Report.metric "fiber.steals_per_ktask" "1/ktask"
    (float_of_int c.c_steals /. ktasks_d2);
  Report.metric "fiber.parks_per_ktask" "1/ktask" (float_of_int parks /. ktasks_t);
  Report.metric "fiber.wakes_per_ktask" "1/ktask" (float_of_int wakes /. ktasks_t);
  Report.metric "fiber.batch_per_steal" "tasks"
    (1.0 +. (float_of_int c.c_batch /. float_of_int steals));
  Report.metric "fiber.leapfrog_per_ktask" "1/ktask"
    (float_of_int c.c_leapfrog /. ktasks_d2);
  Report.metric "fiber.recycle_hit_frac" "frac"
    (float_of_int c.c_recycled /. float_of_int (max 1 (c.c_recycled + c.c_miss)));
  Report.metric "gc.minor_words_per_task" "words" gc_minor;
  Report.metric "gc.major_words_per_task" "words" gc_major;
  Report.metric "gc.minor_gcs_per_ktask" "1/ktask" gc_minors;
  Report.note "  sequential fib per task" "ns" seq_task_ns;
  Report.note "  1-domain pool per task" "ns" d1_task_ns;
  Report.note "  2-domain pool per task (wall)" "ns" d2_task_ns;
  Report.note "  clock pair subtracted" "ns" clock_ns;
  Report.note ~n:ready "  await that found its child done" "ns" ready_ns;
  (* Reconciliation: the 2 domains spend 2 x wall per task; the timed
     layers account for the body (sequential cost), one spawn and one
     await that found its child done. *)
  let explained = seq_task_ns +. spawn_ns +. ready_ns in
  let share = explained /. (2.0 *. d2_task_ns) in
  Report.metric "recon.forkjoin.explained_frac" "frac" share;
  Report.note "  explained per task (body+spawn+ready await)" "ns" explained;
  Report.note "  1-domain share explained" "frac" (explained /. d1_task_ns);
  if 1.0 -. share > 0.2 then
    Report.flag
      "forkjoin: %.0f%% of 2-domain CPU time per task is not explained by \
       body + spawn + await (idle spin, steals, parks, blocked joins)"
      ((1.0 -. share) *. 100.0);
  Report.metric "trace.forkjoin.overhead_frac" "frac" ((d2t /. d2) -. 1.0)
