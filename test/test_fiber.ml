(* Tests for the real (executable, multicore) fiber runtime. *)

let with_pool ?(domains = 2) ?preempt_interval f =
  let pool = Fiber.make (Fiber.Config.make ~domains ?preempt_interval ()) in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () -> f pool)

let test_run_returns () =
  with_pool (fun pool ->
      Alcotest.(check int) "result" 42 (Fiber.run pool (fun () -> 42)))

let test_run_propagates_exception () =
  with_pool (fun pool ->
      Alcotest.check_raises "exn" Exit (fun () ->
          Fiber.run pool (fun () -> raise Exit)))

let test_spawn_await () =
  with_pool (fun pool ->
      let r =
        Fiber.run pool (fun () ->
            let p = Fiber.spawn (fun () -> 7 * 6) in
            Fiber.await p)
      in
      Alcotest.(check int) "child result" 42 r)

let test_await_failed_child () =
  with_pool (fun pool ->
      Alcotest.check_raises "child exn" Not_found (fun () ->
          Fiber.run pool (fun () -> Fiber.await (Fiber.spawn (fun () -> raise Not_found)))))

let test_many_fibers () =
  with_pool ~domains:3 (fun pool ->
      let total =
        Fiber.run pool (fun () ->
            let ps = List.init 200 (fun i -> Fiber.spawn (fun () -> i)) in
            List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
      in
      Alcotest.(check int) "sum 0..199" (199 * 200 / 2) total)

let test_nested_spawn () =
  with_pool (fun pool ->
      let r =
        Fiber.run pool (fun () ->
            let p =
              Fiber.spawn (fun () ->
                  let q = Fiber.spawn (fun () -> 10) in
                  Fiber.await q + 1)
            in
            Fiber.await p + 1)
      in
      Alcotest.(check int) "nested" 12 r)

let test_yield_progress () =
  with_pool ~domains:1 (fun pool ->
      (* Single worker: a yielding producer and a consumer must interleave. *)
      let r =
        Fiber.run pool (fun () ->
            let flag = Atomic.make false in
            let setter = Fiber.spawn (fun () -> Atomic.set flag true) in
            (* Yield until the other fiber has run. *)
            while not (Atomic.get flag) do
              Fiber.yield ()
            done;
            Fiber.await setter;
            true)
      in
      Alcotest.(check bool) "interleaved" true r)

let test_parallel_for_covers () =
  with_pool ~domains:3 (fun pool ->
      let hits = Array.make 1000 0 in
      Fiber.run pool (fun () ->
          Fiber.parallel_for 0 1000 (fun i -> hits.(i) <- hits.(i) + 1));
      Array.iteri (fun i h -> if h <> 1 then Alcotest.failf "index %d hit %d" i h) hits)

let test_parallel_speedup_runs () =
  (* Not a timing assertion (CI noise), just that parallel fib works. *)
  with_pool ~domains:3 (fun pool ->
      let rec fib n =
        if n < 12 then seq_fib n
        else
          let a = Fiber.spawn (fun () -> fib (n - 1)) in
          let b = fib (n - 2) in
          Fiber.await a + b
      and seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2) in
      let r = Fiber.run pool (fun () -> fib 20) in
      Alcotest.(check int) "fib 20" 6765 r)

let test_preemption_ticker () =
  with_pool ~domains:1 ~preempt_interval:0.005 (fun pool ->
      (* Two greedy fibers calling [check] in their loops must interleave
         even on a single worker. *)
      let r =
        Fiber.run pool (fun () ->
            let progress = Atomic.make 0 in
            let greedy _i () =
              let t0 = Unix.gettimeofday () in
              while Unix.gettimeofday () -. t0 < 0.1 do
                Atomic.incr progress;
                Fiber.check ()
              done
            in
            let a = Fiber.spawn (greedy 0) in
            let b = Fiber.spawn (greedy 1) in
            Fiber.await a;
            Fiber.await b;
            true)
      in
      Alcotest.(check bool) "completed" true r;
      Alcotest.(check bool) "preemptions happened" true (Fiber.preemptions pool > 0))

let test_pool_reuse_across_runs () =
  with_pool (fun pool ->
      Alcotest.(check int) "first" 1 (Fiber.run pool (fun () -> 1));
      Alcotest.(check int) "second" 2 (Fiber.run pool (fun () -> 2)))

let test_shutdown_rejects_run () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  Fiber.shutdown pool;
  Alcotest.check_raises "rejected" (Invalid_argument "Fiber.run: pool is shut down")
    (fun () -> ignore (Fiber.run pool (fun () -> ())))

let test_shutdown_rejects_submit () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  Fiber.shutdown pool;
  Alcotest.check_raises "rejected"
    (Invalid_argument "Fiber.submit: pool is shut down") (fun () ->
      ignore (Fiber.submit pool (fun () -> ())))

(* Outside a worker, a resolved promise is still readable, but a
   blocking await or a yield must fail with the same error as [spawn]
   rather than leak the runtime's internal effect.  On one domain, [run]
   returns as soon as [main] does, so the child it returns never ran. *)
let test_await_outside_worker () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  let outside = Failure "Fiber: not inside a fiber runtime worker" in
  let resolved =
    Fiber.run pool (fun () ->
        let p = Fiber.spawn (fun () -> 3) in
        ignore (Fiber.await p);
        p)
  in
  Alcotest.(check int) "resolved promise" 3 (Fiber.await resolved);
  let child = Fiber.run pool (fun () -> Fiber.spawn (fun () -> 7)) in
  Alcotest.(check bool) "child never ran" false (Fiber.is_resolved child);
  Alcotest.check_raises "await after run" outside (fun () ->
      ignore (Fiber.await child));
  Alcotest.check_raises "yield outside" outside Fiber.yield;
  Fiber.shutdown pool;
  Alcotest.check_raises "await after shutdown" outside (fun () ->
      ignore (Fiber.await child))

(* Shutdown does not drain: worker 1 finishes the request it is running
   and exits, leaving the rest of the external queue unrun. *)
let test_shutdown_with_queued_submits () =
  let pool = Fiber.make (Fiber.Config.make ~domains:2 ~preempt_interval:1e-3 ()) in
  let spin () =
    let until = Unix.gettimeofday () +. 0.02 in
    while Unix.gettimeofday () < until do
      ()
    done
  in
  let ps = List.init 50 (fun _ -> Fiber.submit pool spin) in
  Fiber.shutdown pool;
  Alcotest.(check bool) "queued requests never ran" false
    (List.for_all Fiber.is_resolved ps)

let test_parallel_map () =
  with_pool ~domains:3 (fun pool ->
      let r = Fiber.run pool (fun () -> Fiber.parallel_map (fun x -> x * x) [ 1; 2; 3; 4 ]) in
      Alcotest.(check (list int)) "squares in order" [ 1; 4; 9; 16 ] r)

(* --- Sharded sub-pools ---------------------------------------------- *)

let with_sharded ?(recorder = false) f =
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:2 ~recorder
         ~subpools:
           [
             Fiber.Config.subpool ~name:"compute" ~workers:[ 0 ] ();
             Fiber.Config.subpool ~name:"analysis" ~workers:[ 1 ] ();
           ]
         ())
  in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () -> f pool)

let test_targeted_spawn () =
  with_sharded (fun pool ->
      Alcotest.(check (list string))
        "names in config order" [ "compute"; "analysis" ] (Fiber.subpools pool);
      let r =
        Fiber.run pool (fun () ->
            Fiber.await (Fiber.spawn ~pool:"analysis" (fun () -> 21 * 2)))
      in
      Alcotest.(check int) "targeted child" 42 r;
      let st =
        List.find (fun s -> s.Fiber.st_name = "analysis") (Fiber.stats pool)
      in
      Alcotest.(check bool) "counted against analysis" true
        (st.Fiber.st_spawned > 0))

let test_unknown_subpool_rejected () =
  with_sharded (fun pool ->
      Alcotest.check_raises "unknown target"
        (Invalid_argument "Fiber: unknown sub-pool \"nope\"") (fun () ->
          Fiber.run pool (fun () ->
              Fiber.await (Fiber.spawn ~pool:"nope" (fun () -> ()))));
      Alcotest.check_raises "unknown submit"
        (Invalid_argument "Fiber: unknown sub-pool \"nope\"") (fun () ->
          ignore (Fiber.submit pool ~pool:"nope" (fun () -> ()))))

(* All three ported policies run the same workload under the one
   SCHEDULER interface; stats reports each by name. *)
let test_pluggable_schedulers () =
  List.iter
    (fun sched ->
      let pool =
        Fiber.make
          (Fiber.Config.make ~domains:2
             ~subpools:
               [ Fiber.Config.subpool ~sched ~name:"main" ~workers:[ 0; 1 ] () ]
             ())
      in
      Fun.protect
        ~finally:(fun () -> Fiber.shutdown pool)
        (fun () ->
          let total =
            Fiber.run pool (fun () ->
                let ps =
                  List.init 100 (fun i ->
                      Fiber.spawn ~prio:(i land 1) (fun () -> i))
                in
                List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
          in
          Alcotest.(check int)
            (Fiber.Scheduler.name sched ^ " sums")
            (99 * 100 / 2) total;
          match Fiber.stats pool with
          | [ st ] ->
              Alcotest.(check string) "scheduler name"
                (Fiber.Scheduler.name sched) st.Fiber.st_sched
          | sts ->
              Alcotest.failf "%d stats rows, expected 1" (List.length sts)))
    [ Fiber.Scheduler.ws; Fiber.Scheduler.packing; Fiber.Scheduler.priority ]

(* Regression: a targeted [~prio:1] spawn into an otherwise idle
   priority sub-pool must run.  External analysis submissions used to
   land on a round-robin-chosen member's *private* aux stack while the
   push's single wakeup could rouse a different member, which found
   nothing and re-parked against the bumped epoch — stranding the task
   (and the await below) until an unrelated push arrived.  They now go
   to the sub-pool-shared aux stack, reachable from whichever member
   wakes; the sequential awaits re-park the members between spawns, so
   under the old routing this test hung with probability ~1 - 2^-20. *)
let test_priority_targeted_prio_spawn () =
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:3
         ~subpools:
           [
             Fiber.Config.subpool ~name:"main" ~workers:[ 0 ] ();
             Fiber.Config.subpool ~sched:Fiber.Scheduler.priority
               ~name:"insitu" ~workers:[ 1; 2 ] ();
           ]
         ())
  in
  Fun.protect
    ~finally:(fun () -> Fiber.shutdown pool)
    (fun () ->
      let total =
        Fiber.run pool (fun () ->
            let acc = ref 0 in
            for i = 1 to 20 do
              acc :=
                !acc
                + Fiber.await (Fiber.spawn ~pool:"insitu" ~prio:1 (fun () -> i))
            done;
            !acc)
      in
      Alcotest.(check int) "all analysis spawns ran" (20 * 21 / 2) total)

(* Engineered overflow: 40 x ~2ms tasks pinned to a 1-worker compute
   sub-pool while the analysis worker idles, so analysis must
   overflow-steal; both the racy per-sub-pool counters and the flight
   recorder (through an encode/decode round trip and the Observe steal
   split) must attribute the cross-sub-pool traffic. *)
let test_overflow_attribution () =
  with_sharded ~recorder:true (fun pool ->
      Fiber.run pool (fun () ->
          let ps =
            List.init 40 (fun _ ->
                Fiber.spawn ~pool:"compute" (fun () ->
                    let t0 = Unix.gettimeofday () in
                    while Unix.gettimeofday () -. t0 < 0.002 do
                      ()
                    done))
          in
          List.iter Fiber.await ps);
      let find n = List.find (fun s -> s.Fiber.st_name = n) (Fiber.stats pool) in
      let analysis = find "analysis" and compute = find "compute" in
      Alcotest.(check bool) "analysis overflowed in" true
        (analysis.Fiber.st_overflow_in > 0);
      Alcotest.(check bool) "compute lost tasks" true
        (compute.Fiber.st_overflow_out > 0);
      let rec_ = Fiber.recorder pool in
      match Preempt_core.Recorder.(decode (encode rec_)) with
      | Error e -> Alcotest.failf "dump round-trip: %s" e
      | Ok dump -> (
          let open Experiments.Observe in
          let r = of_dump dump in
          match r.r_steals with
          | None -> Alcotest.fail "no steal split in the report"
          | Some s ->
              Alcotest.(check bool) "overflow steals recorded" true
                (s.ss_overflow > 0);
              List.iter
                (fun (thief, victim, n) ->
                  if not (thief = 1 && victim = 0 && n > 0) then
                    Alcotest.failf
                      "unexpected steal pair: sub-pool %d from %d (%d)" thief
                      victim n)
                s.ss_pairs))

(* --- Work-first joins -------------------------------------------------
   [await] runs queued work inline before it suspends, popping the
   joiner's own queue when it spawned the child.  Each test runs on
   every built-in scheduler at 1 and 2 domains. *)

let each_shape f =
  List.iter
    (fun sched ->
      List.iter
        (fun domains ->
          let pool =
            Fiber.make
              (Fiber.Config.make ~domains
                 ~subpools:
                   [
                     Fiber.Config.subpool ~sched ~name:"main"
                       ~workers:(List.init domains Fun.id) ();
                   ]
                 ())
          in
          let label =
            Printf.sprintf "%s d%d" (Fiber.Scheduler.name sched) domains
          in
          Fun.protect
            ~finally:(fun () -> Fiber.shutdown pool)
            (fun () -> f label pool))
        [ 1; 2 ])
    [ Fiber.Scheduler.ws; Fiber.Scheduler.packing; Fiber.Scheduler.priority ]

let sum_stats f pool = List.fold_left (fun acc st -> acc + f st) 0 (Fiber.stats pool)

(* No cutoff: every call but the leaves spawns, so a call of [n] makes
   F(n+1) - 1 spawns. *)
let rec fib_nocut n =
  if n < 2 then n
  else
    let a = Fiber.spawn (fun () -> fib_nocut (n - 1)) in
    let b = fib_nocut (n - 2) in
    Fiber.await a + b

let test_inline_fib () =
  each_shape (fun label pool ->
      Alcotest.(check int) (label ^ " fib 22") 17711
        (Fiber.run pool (fun () -> fib_nocut 22));
      Alcotest.(check int) (label ^ " spawns = F(23) - 1") 28656
        (sum_stats (fun st -> st.Fiber.st_spawned) pool))

(* Child 5 awaits a grandchild that raises, so the exception crosses two
   nested inline frames; it must reach child 5's awaiter and nobody
   else. *)
let test_inline_child_raises () =
  each_shape (fun label pool ->
      let got =
        Fiber.run pool (fun () ->
            let ps =
              List.init 10 (fun i ->
                  Fiber.spawn (fun () ->
                      if i = 5 then
                        Fiber.await (Fiber.spawn (fun () -> failwith "boom"))
                      else i * i))
            in
            (* Newest first: each child is at the bottom of the queue
               when it is awaited. *)
            List.rev_map
              (fun p ->
                match Fiber.await p with
                | v -> Ok v
                | exception Failure m -> Error m)
              (List.rev ps))
      in
      Alcotest.(check (list (result int string)))
        label
        (List.init 10 (fun i -> if i = 5 then Error "boom" else Ok (i * i)))
        got)

(* The child run inline blocks twice: on a channel whose sender yields
   60 times first, and on a promise whose fiber yields 100 times.  Both
   exceed the inline budget of 32, so the joiner runs out of work it may
   take and suspends; it must resume with the child's value. *)
let test_inline_child_blocks () =
  each_shape (fun label pool ->
      let v =
        Fiber.run pool (fun () ->
            let ch = Fiber.Fsync.Channel.create () in
            let sender =
              Fiber.spawn (fun () ->
                  for _ = 1 to 60 do
                    Fiber.yield ()
                  done;
                  Fiber.Fsync.Channel.send ch 41)
            in
            let slow =
              Fiber.spawn (fun () ->
                  for _ = 1 to 100 do
                    Fiber.yield ()
                  done;
                  1)
            in
            let child =
              Fiber.spawn (fun () ->
                  let x = Fiber.Fsync.Channel.recv ch in
                  x + Fiber.await slow)
            in
            let r = Fiber.await child in
            Fiber.await sender;
            r)
      in
      Alcotest.(check int) label 42 v)

(* Awaiting 200 children in spawn order: on a LIFO queue the first
   await pops the newest children, spends its whole budget and
   suspends; the worker loop finishes the rest and resumes it. *)
let test_inline_parallel_map () =
  each_shape (fun label pool ->
      let xs = List.init 200 Fun.id in
      let got = Fiber.run pool (fun () -> Fiber.parallel_map (fun x -> 3 * x) xs) in
      Alcotest.(check (list int)) label (List.map (fun x -> 3 * x) xs) got;
      Alcotest.(check int) (label ^ " spawns") 200
        (sum_stats (fun st -> st.Fiber.st_spawned) pool);
      if label = "ws d1" then
        Alcotest.(check int) "ws d1: one full budget inline" 32
          (sum_stats (fun st -> st.Fiber.st_leapfrog) pool))

(* Counters that gate on any host.  On one domain nobody steals, so
   every child is still at the bottom of its parent's queue when it is
   awaited: each join must complete inline (leapfrogs = spawns) and the
   worker must never park.  The allocation bound is 25% above the
   46.1 words per spawn measured with OCaml 5.1.1 (no flambda); the
   count is deterministic on one domain. *)
let minor_words_per_spawn_bound = 57.6

let test_inline_counter_gate () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  Fun.protect
    ~finally:(fun () -> Fiber.shutdown pool)
    (fun () ->
      let w0 = Gc.minor_words () in
      let v = Fiber.run pool (fun () -> fib_nocut 15) in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "fib 15" 610 v;
      let spawns = sum_stats (fun st -> st.Fiber.st_spawned) pool in
      Alcotest.(check int) "spawns = F(16) - 1" 986 spawns;
      Alcotest.(check int) "every join inline" spawns
        (sum_stats (fun st -> st.Fiber.st_leapfrog) pool);
      Alcotest.(check int) "no parks" 0 (sum_stats (fun st -> st.Fiber.st_parks) pool);
      let per_spawn = words /. float_of_int spawns in
      if per_spawn > minor_words_per_spawn_bound then
        Alcotest.failf "%.1f minor words per spawn, bound %.1f" per_spawn
          minor_words_per_spawn_bound)

let test_deque_basics () =
  let d = Fiber.Deque.create () in
  Fiber.Deque.push d 1;
  Fiber.Deque.push d 2;
  Fiber.Deque.push d 3;
  Alcotest.(check (option int)) "owner LIFO" (Some 3) (Fiber.Deque.pop d);
  Alcotest.(check (option int)) "thief FIFO" (Some 1) (Fiber.Deque.steal d);
  Alcotest.(check int) "len" 1 (Fiber.Deque.length d)

let suite =
  [
    Alcotest.test_case "run returns" `Quick test_run_returns;
    Alcotest.test_case "run propagates exception" `Quick test_run_propagates_exception;
    Alcotest.test_case "spawn/await" `Quick test_spawn_await;
    Alcotest.test_case "await failed child" `Quick test_await_failed_child;
    Alcotest.test_case "many fibers" `Quick test_many_fibers;
    Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
    Alcotest.test_case "yield progress (1 worker)" `Quick test_yield_progress;
    Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers;
    Alcotest.test_case "parallel fib" `Quick test_parallel_speedup_runs;
    Alcotest.test_case "preemption ticker" `Quick test_preemption_ticker;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse_across_runs;
    Alcotest.test_case "shutdown rejects run" `Quick test_shutdown_rejects_run;
    Alcotest.test_case "shutdown rejects submit" `Quick
      test_shutdown_rejects_submit;
    Alcotest.test_case "shutdown with queued submits returns" `Quick
      test_shutdown_with_queued_submits;
    Alcotest.test_case "await outside a worker" `Quick
      test_await_outside_worker;
    Alcotest.test_case "parallel_map" `Quick test_parallel_map;
    Alcotest.test_case "targeted spawn" `Quick test_targeted_spawn;
    Alcotest.test_case "unknown sub-pool rejected" `Quick
      test_unknown_subpool_rejected;
    Alcotest.test_case "pluggable schedulers" `Quick test_pluggable_schedulers;
    Alcotest.test_case "priority: targeted prio spawn wakes" `Quick
      test_priority_targeted_prio_spawn;
    Alcotest.test_case "overflow attribution" `Quick test_overflow_attribution;
    Alcotest.test_case "deque basics" `Quick test_deque_basics;
    Alcotest.test_case "inline join: no-cutoff fib" `Quick test_inline_fib;
    Alcotest.test_case "inline join: child raises" `Quick
      test_inline_child_raises;
    Alcotest.test_case "inline join: child blocks" `Quick
      test_inline_child_blocks;
    Alcotest.test_case "inline join: parallel_map budget" `Quick
      test_inline_parallel_map;
    Alcotest.test_case "inline join: counter gate" `Quick
      test_inline_counter_gate;
  ]
