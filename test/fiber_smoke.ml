(* Multi-domain smoke for the lock-free fiber runtime (dune alias
   @fiber-smoke, part of @runtest).

   Everything here is a liveness/linearizability check that needs real
   domains, which alcotest's in-process suites exercise only lightly:

   1. Chase–Lev deque under contention: 1 owner (push/pop, with
      interleaved push_front) vs N stealer domains.  Every pushed value
      must be claimed exactly once — no losses, no duplicates — and the
      claimed checksum must equal the pushed checksum.
   2. Park/unpark hammer: repeated tiny spawn/await bursts separated by
      forced idle gaps, so workers continuously cross the
      spin -> park -> signal -> unpark path.  A lost wakeup hangs the
      run (the driver's timeout is the failure detector); completing all
      rounds is the pass.
   3. Cross-domain preemption ticker: greedy fibers on several domains
      must all be preempted at safe points and complete, and a worker
      spinning with no safe point must not starve the ticker.
   4-5. Racy stats snapshots and a recorded serving run (see below).
   6. External submits into parked workers, on every built-in
      scheduler and through the cross-sub-pool overflow wake: every
      wakeup must arrive.

   Iteration counts are sized to finish in a few seconds on a single
   oversubscribed core (CI worst case). *)

let fail fmt = Printf.ksprintf (fun s -> print_endline ("FAIL: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* 1. Deque: 1 owner vs N stealers. *)

let deque_stress ~stealers ~items =
  let d = Fiber.Deque.create () in
  let seen = Array.init items (fun _ -> Atomic.make 0) in
  let claimed = Atomic.make 0 in
  let claimed_sum = Atomic.make 0 in
  (* A sampler domain hammers the racy [length] snapshot throughout: it
     must clamp the ring term's negative transients (owner pop's
     bottom = top - 1 window, thief CAS between the index reads) and
     never report a negative backlog. *)
  let neg_lengths = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while Atomic.get claimed < items do
          if Fiber.Deque.length d < 0 then Atomic.incr neg_lengths
        done)
  in
  let claim v =
    ignore (Atomic.fetch_and_add (Array.get seen v) 1);
    ignore (Atomic.fetch_and_add claimed_sum v);
    Atomic.incr claimed
  in
  (* Thieves race the owner and each other for the steal end. *)
  let thieves =
    List.init stealers (fun _ ->
        Domain.spawn (fun () ->
            while Atomic.get claimed < items do
              match Fiber.Deque.steal d with
              | Some v -> claim v
              | None -> Domain.cpu_relax ()
            done))
  in
  (* Owner: push everything (every 7th value via the front segment),
     popping a run of 16 every so often so owner pops race the steals. *)
  for v = 0 to items - 1 do
    if v mod 7 = 3 then Fiber.Deque.push_front d v else Fiber.Deque.push d v;
    if v mod 64 = 63 then
      for _ = 1 to 16 do
        match Fiber.Deque.pop d with Some x -> claim x | None -> ()
      done
  done;
  let rec drain () =
    if Atomic.get claimed < items then begin
      (match Fiber.Deque.pop d with
      | Some x -> claim x
      | None -> Domain.cpu_relax ());
      drain ()
    end
  in
  drain ();
  List.iter Domain.join thieves;
  Domain.join sampler;
  if Atomic.get neg_lengths > 0 then
    fail "deque stress: length went negative %d time(s)"
      (Atomic.get neg_lengths);
  Array.iteri
    (fun v c ->
      let c = Atomic.get c in
      if c <> 1 then fail "deque stress: value %d claimed %d times" v c)
    seen;
  let expect = items * (items - 1) / 2 in
  if Atomic.get claimed_sum <> expect then
    fail "deque stress: checksum %d, expected %d" (Atomic.get claimed_sum) expect;
  if Fiber.Deque.length d <> 0 then
    fail "deque stress: %d left over" (Fiber.Deque.length d);
  Printf.printf "deque stress: %d items, %d stealers, no dup/loss\n%!" items
    stealers

(* ------------------------------------------------------------------ *)
(* 2. Park/unpark hammer. *)

let park_hammer ~domains ~rounds =
  let pool = Fiber.make (Fiber.Config.make ~domains ()) in
  let total = Atomic.make 0 in
  for round = 1 to rounds do
    let n =
      Fiber.run pool (fun () ->
          (* A burst small enough that workers go idle between rounds;
             a yield in each child forces a re-queue through the
             wake path as well. *)
          let ps =
            List.init (1 + (round mod 4)) (fun i ->
                Fiber.spawn (fun () ->
                    Fiber.yield ();
                    i + 1))
          in
          List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
    in
    ignore (Atomic.fetch_and_add total n)
  done;
  Fiber.shutdown pool;
  let expect = ref 0 in
  for round = 1 to rounds do
    let k = 1 + (round mod 4) in
    expect := !expect + (k * (k + 1) / 2)
  done;
  if Atomic.get total <> !expect then
    fail "park hammer: sum %d, expected %d" (Atomic.get total) !expect;
  Printf.printf "park hammer: %d rounds x %d domains, no lost wakeup\n%!" rounds
    domains

(* ------------------------------------------------------------------ *)
(* 3. Preemption ticker across domains. *)

let preempt_smoke ~domains =
  let pool = Fiber.make (Fiber.Config.make ~domains ~preempt_interval:0.002 ()) in
  let finished =
    Fiber.run pool (fun () ->
        let ps =
          List.init (2 * domains) (fun _ ->
              Fiber.spawn (fun () ->
                  (* Greedy until somebody (us or a sibling) takes a
                     preemption, with a generous deadline: on an
                     oversubscribed single-core CI box the OS may run
                     the ticker domain late. *)
                  let t0 = Unix.gettimeofday () in
                  while
                    Fiber.preemptions pool = 0
                    && Unix.gettimeofday () -. t0 < 5.0
                  do
                    Fiber.check ()
                  done;
                  1))
        in
        List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
  in
  let preempted = Fiber.preemptions pool in
  Fiber.shutdown pool;
  if finished <> 2 * domains then
    fail "preempt smoke: %d fibers finished, expected %d" finished (2 * domains);
  if preempted = 0 then fail "preempt smoke: ticker never preempted anybody";
  Printf.printf "preempt smoke: %d greedy fibers on %d domains, %d preemptions\n%!"
    finished domains preempted

(* 3b. Ticker starvation: worker 0 spins with no safe point while a
   fiber on worker 1 polls [check].  The ticker must keep flagging
   worker 1 at its quantum regardless of what runs on worker 0: a
   ticker that shares worker 0's runtime lock only gets in at OCaml's
   50 ms master-lock tick, about 10 preemptions in the window.  The
   floor is 10x that, about 6% of the rate the ticker delivers with
   worker 0 asleep. *)

let ticker_starvation () =
  let quantum = 200e-6 and window = 0.5 and floor = 100 in
  let pool = Fiber.make (Fiber.Config.make ~domains:2 ~preempt_interval:quantum ()) in
  let started = Atomic.make false and stop = Atomic.make false in
  let preempted =
    Fiber.run pool (fun () ->
        let poller =
          Fiber.spawn (fun () ->
              Atomic.set started true;
              while not (Atomic.get stop) do
                Fiber.check ()
              done)
        in
        (* Worker 0 runs this fiber and never reaches a safe point, so
           only worker 1 can have picked the poller up. *)
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let before = Fiber.preemptions pool in
        let until = Unix.gettimeofday () +. window in
        while Unix.gettimeofday () < until do
          ()
        done;
        let n = Fiber.preemptions pool - before in
        Atomic.set stop true;
        Fiber.await poller;
        n)
  in
  Fiber.shutdown pool;
  if preempted < floor then
    fail "ticker starvation: %d preemptions in %.1f s at a %.0f us quantum \
          with worker 0 busy (need >= %d)"
      preempted window (quantum *. 1e6) floor;
  Printf.printf
    "ticker starvation: %d preemptions in %.1f s with worker 0 busy\n%!"
    preempted window

(* ------------------------------------------------------------------ *)
(* 4. Concurrent stats sampler: [Fiber.stats] reads racy plain
   counters while workers mutate them (spawn / steal / complete), so
   individual reads can tear mid-update; the snapshot clamp must keep
   every published field nonnegative no matter when the sampler
   lands.  A dedicated domain hammers the snapshot for the whole
   run — the same access pattern as the [repro top] display thread. *)

let stats_sampler_smoke ~domains ~rounds =
  let pool = Fiber.make (Fiber.Config.make ~domains ~preempt_interval:0.002 ()) in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let snapshots = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          List.iter
            (fun st ->
              Atomic.incr snapshots;
              if
                st.Fiber.st_pending < 0
                || st.Fiber.st_spawned < 0
                || st.Fiber.st_local_steals < 0
                || st.Fiber.st_overflow_in < 0
                || st.Fiber.st_overflow_out < 0
                || st.Fiber.st_batch_stolen < 0
                || st.Fiber.st_leapfrog < 0
              then Atomic.incr bad)
            (Fiber.stats pool)
        done)
  in
  for _round = 1 to rounds do
    let n =
      Fiber.run pool (fun () ->
          let ps =
            List.init 32 (fun i ->
                Fiber.spawn (fun () ->
                    Fiber.yield ();
                    i))
          in
          List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
    in
    if n <> 32 * 31 / 2 then fail "stats sampler: round sum %d" n
  done;
  Atomic.set stop true;
  Domain.join sampler;
  Fiber.shutdown pool;
  if Atomic.get bad > 0 then
    fail "stats sampler: %d negative snapshot field(s)" (Atomic.get bad);
  Printf.printf
    "stats sampler: %d snapshots against %d rounds, every field >= 0\n%!"
    (Atomic.get snapshots) rounds

(* ------------------------------------------------------------------ *)
(* 5. Span round-trip: a small recorder+telemetry serving run, dumped
   and re-analyzed, must decompose every complete request span into
   queueing + service + preemption overhead whose sum reproduces the
   measured sojourn bucket-for-bucket — the exactness [repro observe]
   advertises. *)

let serve_span_smoke () =
  let cfg =
    {
      Serve.default with
      Serve.rate = 2000.0;
      duration = 0.25;
      domains = 3;
      recorder = true;
      telemetry = true;
    }
  in
  let path = Filename.temp_file "serve_span_smoke" ".flt" in
  let rep = Serve.run { cfg with Serve.dump = Some path } in
  if rep.Serve.r_completed <> rep.Serve.r_offered then
    fail "span smoke: %d/%d requests completed" rep.Serve.r_completed
      rep.Serve.r_offered;
  let d =
    match Preempt_core.Recorder.load ~path with
    | Ok d -> d
    | Error e -> fail "span smoke: dump does not decode: %s" e
  in
  Sys.remove path;
  match (Experiments.Observe.of_dump d).Experiments.Observe.r_spans with
  | None -> fail "span smoke: no span section in the observe report"
  | Some s ->
      let open Experiments.Observe in
      if s.spn_complete = 0 then fail "span smoke: no complete spans";
      if s.spn_verified <> s.spn_complete then
        fail
          "span smoke: %d/%d spans verified (stage sum must reproduce the \
           measured sojourn bucket-for-bucket)"
          s.spn_verified s.spn_complete;
      Printf.printf
        "span smoke: %d/%d spans verified against measured sojourns\n%!"
        s.spn_verified s.spn_complete

(* ------------------------------------------------------------------ *)
(* 6. External submit into parked workers.  Pushes bump a sub-pool's
   epoch only when they see a sleeper, so the push/sleeper handshake
   alone must keep every wakeup: each round lets the target's workers
   go idle (a varying gap, so some submits land mid-park-protocol and
   some on fully parked workers), then submits from a non-worker thread
   and waits for the result.  A lost wakeup leaves the task queued with
   every worker asleep; the per-round deadline reports it.  [Fiber.run]
   is never entered, so worker 0 (the caller's slot) stays idle, and
   the target sub-pool has the single worker 1: no sibling can rescue a
   lost wakeup by finding the task on its own. *)

let wait_resolved what round p =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not (Fiber.is_resolved p) do
    if Unix.gettimeofday () > deadline then
      fail "%s: lost wakeup in round %d" what round;
    Domain.cpu_relax ()
  done

(* Odd rounds busy-wait 0-24 us, which spreads the submits over the
   few microseconds a worker spends between its last task and the
   condvar (spin probes, announce, re-sweep, lock); even rounds sleep
   up to 300 us so the workers are fully parked. *)
let idle_gap round =
  if round land 1 = 1 then begin
    let us = round * 7919 mod 25 in
    let until = Unix.gettimeofday () +. (float_of_int us *. 1e-6) in
    while Unix.gettimeofday () < until do
      Domain.cpu_relax ()
    done
  end
  else Unix.sleepf (float_of_int (round mod 4) *. 1e-4)

let submit_into_parked sched ~rounds =
  let name = Fiber.Scheduler.name sched in
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:2
         ~subpools:
           [
             Fiber.Config.subpool ~name:"caller" ~workers:[ 0 ] ();
             Fiber.Config.subpool ~sched ~name:"target" ~workers:[ 1 ] ();
           ]
         ())
  in
  for round = 1 to rounds do
    idle_gap round;
    (* Analysis-priority work takes the priority scheduler's separate
       shared stack; the other schedulers ignore [prio]. *)
    let ps =
      List.init (1 + (round mod 3)) (fun i ->
          Fiber.submit pool ~pool:"target" ~prio:(i land 1) (fun () -> round + i))
    in
    List.iter (wait_resolved ("submit into parked " ^ name) round) ps
  done;
  Fiber.shutdown pool;
  Printf.printf "submit into parked %s: %d rounds, no lost wakeup\n%!" name
    rounds

(* The cross-sub-pool branch: "busy"'s only member spins on a blocker,
   so "busy" has no sleeper of its own and every submit there must wake
   the parked overflow worker of "helper" instead. *)
let overflow_wake ~rounds =
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:3
         ~subpools:
           [
             Fiber.Config.subpool ~name:"caller" ~workers:[ 0 ] ();
             Fiber.Config.subpool ~name:"busy" ~workers:[ 1 ] ();
             Fiber.Config.subpool ~name:"helper" ~workers:[ 2 ] ();
           ]
         ())
  in
  let helper () =
    List.find (fun st -> st.Fiber.st_name = "helper") (Fiber.stats pool)
  in
  let stop = Atomic.make false in
  let started = Atomic.make false in
  (* Both workers are parked after the settle time, so the submit wakes
     "busy"'s own member; it keeps the blocker, pinned, to the end. *)
  Unix.sleepf 0.01;
  let blocker =
    Fiber.submit pool ~pool:"busy" (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  if (helper ()).Fiber.st_overflow_in <> 0 then
    fail "overflow wake: the helper took the blocker";
  for round = 1 to rounds do
    idle_gap round;
    let p = Fiber.submit pool ~pool:"busy" (fun () -> round) in
    wait_resolved "overflow wake" round p
  done;
  Atomic.set stop true;
  wait_resolved "overflow wake (blocker)" 0 blocker;
  let moved = (helper ()).Fiber.st_overflow_in in
  Fiber.shutdown pool;
  if moved < rounds then
    fail "overflow wake: helper ran %d of %d submits" moved rounds;
  Printf.printf "overflow wake: %d rounds served cross-sub-pool, no lost wakeup\n%!"
    rounds

let () =
  deque_stress ~stealers:3 ~items:30_000;
  park_hammer ~domains:3 ~rounds:400;
  preempt_smoke ~domains:2;
  ticker_starvation ();
  stats_sampler_smoke ~domains:3 ~rounds:150;
  serve_span_smoke ();
  List.iter
    (fun sched -> submit_into_parked sched ~rounds:400)
    [ Fiber.Scheduler.ws; Fiber.Scheduler.packing; Fiber.Scheduler.priority ];
  overflow_wake ~rounds:400;
  print_endline "fiber-smoke: OK"
