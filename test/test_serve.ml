(* Tests for the serving workload.  Most are deterministic and touch
   no pool: the seeded arrival schedule, the config rejections, and the
   shared re-measure-once perf gate.  The "run:" cases drive
   [Serve.run] on a small 2-domain pool, with no ticker, to pin its
   completion latch and its memory per offered request; they assert
   counts and heap words, never wall-clock figures. *)

module G = Experiments.Gate

let feq msg expected actual =
  Alcotest.(check (float 1e-12)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Arrival schedule: pure, seeded, ascending. *)

let small =
  { Serve.default with Serve.rate = 5_000.0; duration = 0.05; seed = 7 }

let test_schedule_deterministic () =
  let a = Serve.schedule small and b = Serve.schedule small in
  Alcotest.(check bool) "equal configs give identical schedules" true (a = b);
  let c = Serve.schedule { small with Serve.seed = 8 } in
  Alcotest.(check bool) "a different seed moves the arrivals" true (a <> c)

let check_rows name rows duration =
  Alcotest.(check bool) (name ^ ": non-empty") true (Array.length rows > 0);
  Array.iteri
    (fun i (t, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: row %d offset in [0, duration)" name i)
        true
        (t >= 0.0 && t < duration);
      if i > 0 then
        let tp, _ = rows.(i - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: row %d ascending" name i)
          true (t >= tp))
    rows

let test_schedule_shape () =
  check_rows "poisson" (Serve.schedule small) small.Serve.duration;
  let bursty =
    {
      small with
      Serve.arrival = Serve.Bursty { period = 0.01; on_frac = 0.25 };
    }
  in
  check_rows "bursty" (Serve.schedule bursty) bursty.Serve.duration

let test_schedule_class_purity () =
  let all cls rows = Array.for_all (fun (_, c) -> c = cls) rows in
  Alcotest.(check bool) "long_frac 0 offers only Short" true
    (all Serve.Short (Serve.schedule { small with Serve.long_frac = 0.0 }));
  Alcotest.(check bool) "long_frac 1 offers only Long" true
    (all Serve.Long (Serve.schedule { small with Serve.long_frac = 1.0 }))

let test_schedule_bursty_on_window () =
  let period = 0.01 and on_frac = 0.25 in
  let rows =
    Serve.schedule
      { small with Serve.arrival = Serve.Bursty { period; on_frac } }
  in
  Array.iteri
    (fun i (t, _) ->
      let phase = Float.rem t period in
      Alcotest.(check bool)
        (Printf.sprintf "bursty row %d lands inside the on-window" i)
        true
        (phase <= (period *. on_frac) +. 1e-9))
    rows

(* A seeded schedule must never move: runs, saved flight records and
   benchmark windows are compared across versions by seed.  Changing
   how the generator stores rows must keep its RNG draw order. *)
let test_schedule_pinned () =
  let rows = Serve.schedule small in
  Alcotest.(check int) "row count" 233 (Array.length rows);
  let expect =
    [|
      (0x1.e9305fa6721d6p-14, Serve.Long);
      (0x1.d8ae503a7a43fp-13, Serve.Short);
      (0x1.9132606e7b698p-12, Serve.Short);
      (0x1.2a887738a6d2fp-11, Serve.Short);
      (0x1.50120913e040bp-11, Serve.Short);
    |]
  in
  Array.iteri
    (fun i (t, cls) ->
      let t', cls' = rows.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "row %d offset %h" i t)
        true (Float.equal t t');
      Alcotest.(check string)
        (Printf.sprintf "row %d class" i)
        (Serve.cls_name cls) (Serve.cls_name cls'))
    expect;
  (* All of a 0.1 s bursty horizon falls in the first 10% on-window, so
     it offers ten times the mean count and outgrows the generator's
     initial room. *)
  let rows =
    Serve.schedule
      {
        small with
        Serve.duration = 0.1;
        arrival = Serve.Bursty { period = 1.0; on_frac = 0.1 };
      }
  in
  Alcotest.(check int) "bursty row count" 5012 (Array.length rows);
  let t, cls = rows.(5011) in
  Alcotest.(check bool) "bursty last offset" true
    (Float.equal t 0x1.994ae4433535fp-4);
  Alcotest.(check string) "bursty last class" "short" (Serve.cls_name cls)

(* ------------------------------------------------------------------ *)
(* [Serve.run] on a real pool, ticker off. *)

let on_two =
  { small with Serve.domains = 2; preempt_interval = None; short_service = 5e-6 }

let check_split name (r : Serve.report) ~short ~long =
  Alcotest.(check int) (name ^ ": all offered completed") r.Serve.r_offered
    r.Serve.r_completed;
  Alcotest.(check int) (name ^ ": short offered") short
    r.Serve.r_short.Serve.cr_offered;
  Alcotest.(check int) (name ^ ": long offered") long
    r.Serve.r_long.Serve.cr_offered;
  Alcotest.(check int) (name ^ ": short completed") short
    r.Serve.r_short.Serve.cr_completed;
  Alcotest.(check int) (name ^ ": long completed") long
    r.Serve.r_long.Serve.cr_completed

let test_run_no_arrivals () =
  (* The first gap at 0.001 req/s is far past a 1 ms horizon, so the
     latch starts at zero and the injector must not block on it. *)
  let c = { on_two with Serve.rate = 0.001; duration = 0.001 } in
  Alcotest.(check int) "empty schedule" 0 (Array.length (Serve.schedule c));
  let r = Serve.run c in
  check_split "no arrivals" r ~short:0 ~long:0;
  Alcotest.(check int) "nothing offered" 0 r.Serve.r_offered

let test_run_class_split () =
  let n = Array.length (Serve.schedule on_two) in
  check_split "long_frac 0"
    (Serve.run { on_two with Serve.long_frac = 0.0 })
    ~short:n ~long:0;
  check_split "long_frac 1"
    (Serve.run { on_two with Serve.long_frac = 1.0; long_service = 50e-6 })
    ~short:0 ~long:n

(* Live heap words per offered request, read after a full major
   collection at the stop hook, when every request has completed but
   the pool and the run's own arrays are still live.  What [run] keeps
   per request is the schedule's float and class byte plus a float
   sojourn slot, about 2.2 words; a promise per request (3 words for
   [Some] plus the promise) would break the bound. *)
let test_run_live_words () =
  let c =
    {
      Serve.default with
      Serve.rate = 20_000.0;
      duration = 0.25;
      domains = 2;
      preempt_interval = None;
    }
  in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let during = ref 0 in
  let r =
    Serve.run
      ~on_pool:(fun _ () ->
        Gc.full_major ();
        during := (Gc.stat ()).Gc.live_words)
      c
  in
  Alcotest.(check int) "all offered completed" r.Serve.r_offered
    r.Serve.r_completed;
  let per_req =
    float_of_int (!during - before) /. float_of_int r.Serve.r_offered
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f live words per offered request (<= 3.0)" per_req)
    true (per_req <= 3.0)

(* ------------------------------------------------------------------ *)
(* Config rejections: exact "Serve: <field> = <value> (must be ...)"
   strings, so the CLI error surface is pinned. *)

let check_rejects msg config =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
      Serve.validate config)

let test_validate_rejections () =
  check_rejects "Serve: rate = 0 (must be positive)"
    { small with Serve.rate = 0.0 };
  check_rejects "Serve: duration = -1 (must be positive)"
    { small with Serve.duration = -1.0 };
  check_rejects "Serve: long_frac = 2 (must be within 0..1)"
    { small with Serve.long_frac = 2.0 };
  check_rejects "Serve: short_service = 0 (must be positive)"
    { small with Serve.short_service = 0.0 };
  check_rejects "Serve: long_service = -0.001 (must be positive)"
    { small with Serve.long_service = -0.001 };
  check_rejects "Serve: arrival.period = 0 (must be positive)"
    { small with Serve.arrival = Serve.Bursty { period = 0.0; on_frac = 0.5 } };
  check_rejects "Serve: arrival.on_frac = 0 (must be within (0, 1])"
    { small with Serve.arrival = Serve.Bursty { period = 0.1; on_frac = 0.0 } };
  check_rejects "Serve: arrival.on_frac = 1.5 (must be within (0, 1])"
    { small with Serve.arrival = Serve.Bursty { period = 0.1; on_frac = 1.5 } }

(* Adaptive quanta are gone; the field only survives for old config
   literals, so turning it on must fail loudly rather than be ignored. *)
let test_validate_rejects_adaptive () =
  check_rejects "Serve: adaptive = true (must be false (quanta are fixed))"
    { small with Serve.adaptive = true };
  Serve.validate { small with Serve.adaptive = false }

(* ------------------------------------------------------------------ *)
(* The shared re-measure-once perf gate, driven by stub measurements
   so every branch is exercised without a single wall-clock read. *)

let counting_remeasure value =
  let calls = ref 0 in
  let f () =
    incr calls;
    value
  in
  (f, calls)

let test_gate_pass_no_retry () =
  let remeasure, calls = counting_remeasure 9.9 in
  (match G.ratio_gate ~host_cores:8 ~minimum:2.0 ~remeasure 3.0 with
  | G.Pass { ratio; retried } ->
      feq "passing first sample is reported" 3.0 ratio;
      Alcotest.(check bool) "no retry on a clean pass" false retried
  | _ -> Alcotest.fail "expected Pass");
  Alcotest.(check int) "remeasure never called" 0 !calls

let test_gate_retry_pass () =
  let remeasure, calls = counting_remeasure 2.5 in
  (match G.ratio_gate ~host_cores:8 ~minimum:2.0 ~remeasure 1.2 with
  | G.Pass { ratio; retried } ->
      feq "retry's ratio is reported" 2.5 ratio;
      Alcotest.(check bool) "marked as retried" true retried
  | _ -> Alcotest.fail "expected Pass after retry");
  Alcotest.(check int) "remeasure called exactly once" 1 !calls

let test_gate_retry_fail () =
  let remeasure, calls = counting_remeasure 1.5 in
  (match G.ratio_gate ~host_cores:8 ~minimum:2.0 ~remeasure 1.2 with
  | G.Fail { ratio } -> feq "failure carries the retry's ratio" 1.5 ratio
  | _ -> Alcotest.fail "expected Fail");
  Alcotest.(check int) "remeasure called exactly once" 1 !calls

let test_gate_skip_below_cores () =
  let remeasure, calls = counting_remeasure 9.9 in
  (match
     G.ratio_gate ~required_cores:4 ~host_cores:2 ~minimum:2.0 ~remeasure 0.5
   with
  | G.Skipped { ratio; cores } ->
      feq "skip still reports the measured ratio" 0.5 ratio;
      Alcotest.(check int) "skip reports the host's cores" 2 cores
  | _ -> Alcotest.fail "expected Skipped below required_cores");
  Alcotest.(check int) "no remeasure on skip" 0 !calls;
  (* A skip — unlike a failure — does not fail the smoke run. *)
  Alcotest.(check bool) "report treats skip as success" true
    (G.report ~name:"stub" ~minimum:2.0 (G.Skipped { ratio = 0.5; cores = 2 }));
  Alcotest.(check bool) "report treats fail as failure" false
    (G.report ~name:"stub" ~minimum:2.0 (G.Fail { ratio = 0.5 }))

let suite =
  [
    Alcotest.test_case "schedule deterministic in seed" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "schedule ascending within horizon" `Quick
      test_schedule_shape;
    Alcotest.test_case "schedule class purity at 0/1" `Quick
      test_schedule_class_purity;
    Alcotest.test_case "bursty arrivals stay in on-window" `Quick
      test_schedule_bursty_on_window;
    Alcotest.test_case "schedule pinned rows" `Quick test_schedule_pinned;
    Alcotest.test_case "config rejections" `Quick test_validate_rejections;
    Alcotest.test_case "config rejects adaptive" `Quick
      test_validate_rejects_adaptive;
    Alcotest.test_case "run: no arrivals" `Quick test_run_no_arrivals;
    Alcotest.test_case "run: class split at long_frac 0/1" `Quick
      test_run_class_split;
    Alcotest.test_case "run: live words per request" `Quick
      test_run_live_words;
    Alcotest.test_case "gate: pass without retry" `Quick
      test_gate_pass_no_retry;
    Alcotest.test_case "gate: transient fail then retry pass" `Quick
      test_gate_retry_pass;
    Alcotest.test_case "gate: fail on retry" `Quick test_gate_retry_fail;
    Alcotest.test_case "gate: skip below core floor" `Quick
      test_gate_skip_below_cores;
  ]
