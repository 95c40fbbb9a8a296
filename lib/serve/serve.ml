(* Open-loop serving workload on the real fiber runtime — the
   "millions of users" scenario: an arrival process (Poisson or on/off
   bursty) injects short-lived request fibers at a configured offered
   rate, regardless of how fast the pool completes them (open loop, so
   overload actually builds a queue instead of throttling the client),
   and per-request sojourn times land in [Metrics.Hist] log-scale
   histograms, one per service class, reported as p50/p99/p99.9.

   The injector is the main fiber on worker 0: it spins on the wall
   clock between arrivals and pushes every request through the
   external submission path ([Fiber.submit]), so requests distribute
   round-robin across the pool like any outside traffic and worker 0
   effectively becomes the load-generator core ([domains - 1] workers
   serve).  Sojourn is measured from the request's *scheduled* arrival
   instant, not the submit call — if the injector itself falls behind
   under overload, that lateness is queueing delay and counts.

   The arrival schedule is a pure function of the config (seeded
   xorshift), so two runs offer byte-identical request sequences and
   test_serve pins the process shapes without touching domains. *)

module Hist = Preempt_core.Metrics.Hist

let wall = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Configuration. *)

type arrival =
  | Poisson
  | Bursty of { period : float; on_frac : float }
      (* all traffic arrives inside the first [on_frac] of every
         [period]-second window, at rate/on_frac (off-rate 0); the mean
         offered rate stays [rate] *)

type cls = Short | Long

type config = {
  rate : float;  (* offered requests per second, both classes together *)
  duration : float;  (* injection horizon in seconds *)
  long_frac : float;  (* fraction of requests in the Long class *)
  short_service : float;  (* spin-work seconds per Short request *)
  long_service : float;  (* spin-work seconds per Long request *)
  arrival : arrival;
  seed : int;
  domains : int;
  preempt_interval : float option;
  adaptive : bool;  (* always false: [validate] rejects [true] *)
  recorder : bool;  (* arm the flight recorder (steals, request spans) *)
  dump : string option;  (* save the flight record here, if [recorder] *)
  telemetry : bool;  (* arm live telemetry (per-worker time series) *)
}

let default =
  {
    rate = 20_000.0;
    duration = 1.0;
    long_frac = 0.05;
    short_service = 20e-6;
    long_service = 2e-3;
    arrival = Poisson;
    seed = 42;
    domains = Fiber.Config.default_domains () + 1;
    preempt_interval = Some 200e-6;
    adaptive = false;
    recorder = false;
    dump = None;
    telemetry = false;
  }

let reject field value requirement =
  invalid_arg
    (Printf.sprintf "Serve: %s = %s (must be %s)" field value requirement)

let validate c =
  if not (c.rate > 0.0) then
    reject "rate" (Printf.sprintf "%g" c.rate) "positive";
  if not (c.duration > 0.0) then
    reject "duration" (Printf.sprintf "%g" c.duration) "positive";
  if not (c.long_frac >= 0.0 && c.long_frac <= 1.0) then
    reject "long_frac" (Printf.sprintf "%g" c.long_frac) "within 0..1";
  if not (c.short_service > 0.0) then
    reject "short_service" (Printf.sprintf "%g" c.short_service) "positive";
  if not (c.long_service > 0.0) then
    reject "long_service" (Printf.sprintf "%g" c.long_service) "positive";
  (match c.arrival with
  | Poisson -> ()
  | Bursty { period; on_frac } ->
      if not (period > 0.0) then
        reject "arrival.period" (Printf.sprintf "%g" period) "positive";
      if not (on_frac > 0.0 && on_frac <= 1.0) then
        reject "arrival.on_frac" (Printf.sprintf "%g" on_frac)
          "within (0, 1]");
  (* Adaptive quanta were removed; the field survives only so existing
     config literals that spell out [adaptive = false] still compile. *)
  if c.adaptive then reject "adaptive" "true" "false (quanta are fixed)";
  (* The telemetry sampler rides the preemption ticker. *)
  if c.telemetry && c.preempt_interval = None then
    reject "telemetry" "true" "combined with preempt_interval"

(* ------------------------------------------------------------------ *)
(* Arrival schedule, deterministic in the seed.  Same xorshift as the
   runtime's victim selection; [u01] maps to (0, 1]. *)

let make_rng seed =
  let state = ref (if seed = 0 then 0x9e3779b9 else seed land max_int) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state

let u01 rng = (float_of_int (rng () land 0xFFFFFF) +. 1.0) /. 16777217.0

let cls_id = function Short -> 0 | Long -> 1

let cls_of_id = function 0 -> Short | _ -> Long

(* The compact schedule [run] injects from: arrival [i] is due
   [at.(i)] seconds after injection starts (an unboxed float array) and
   has class id [kind.[i]] (one byte).  Both have room for at least [n]
   rows; rows past [n] are unused. *)
type arrivals = { n : int; at : float array; kind : Bytes.t }

(* Poisson arrivals at [rate]: exponential gaps.  Bursty arrivals reuse
   the same stream at rate/on_frac and then stretch time so gaps fall
   only inside the on-window of each period (off-window time is skipped
   over), keeping the mean offered rate at [rate].  Each arrival draws
   its class, then the next gap. *)
let arrivals c =
  validate c;
  let rng = make_rng c.seed in
  (* Room for the expected count plus four standard deviations, so the
     arrays are filled in place and (almost) never regrown. *)
  let expect = c.rate *. c.duration in
  let cap = int_of_float (expect +. (4.0 *. sqrt expect)) + 16 in
  let at = ref (Array.make cap 0.0) and kind = ref (Bytes.make cap '\000') in
  let n = ref 0 in
  let add t =
    if !n = Array.length !at then begin
      let cap = 2 * !n in
      let at' = Array.make cap 0.0 and kind' = Bytes.make cap '\000' in
      Array.blit !at 0 at' 0 !n;
      Bytes.blit !kind 0 kind' 0 !n;
      at := at';
      kind := kind'
    end;
    !at.(!n) <- t;
    Bytes.set_uint8 !kind !n
      (cls_id (if u01 rng < c.long_frac then Long else Short));
    incr n
  in
  (match c.arrival with
  | Poisson ->
      let t = ref 0.0 in
      let gap () = -.log (u01 rng) /. c.rate in
      t := !t +. gap ();
      while !t < c.duration do
        add !t;
        t := !t +. gap ()
      done
  | Bursty { period; on_frac } ->
      let on_s = period *. on_frac in
      let burst_rate = c.rate /. on_frac in
      (* [tau] is time accumulated inside on-windows only. *)
      let tau = ref 0.0 in
      let gap () = -.log (u01 rng) /. burst_rate in
      let to_wall tau =
        let k = Float.of_int (int_of_float (tau /. on_s)) in
        (k *. period) +. (tau -. (k *. on_s))
      in
      tau := !tau +. gap ();
      while to_wall !tau < c.duration do
        add (to_wall !tau);
        tau := !tau +. gap ()
      done);
  { n = !n; at = !at; kind = !kind }

let schedule c =
  let a = arrivals c in
  Array.init a.n (fun i -> (a.at.(i), cls_of_id (Bytes.get_uint8 a.kind i)))

(* ------------------------------------------------------------------ *)
(* Reports. *)

type class_report = {
  cr_class : cls;
  cr_offered : int;
  cr_completed : int;
  cr_mean : float;  (* seconds; nan when empty *)
  cr_p50 : float;
  cr_p99 : float;
  cr_p999 : float;
  cr_hist : Hist.t;
}

type report = {
  r_config : config;
  r_offered : int;
  r_completed : int;
  r_elapsed : float;  (* injection start -> last completion awaited *)
  r_short : class_report;
  r_long : class_report;
  r_preemptions : int;
  r_subpools : Fiber.subpool_stats list;
  r_flight : Preempt_core.Recorder.event array;  (* empty unless recorder *)
}

let quantile_or_nan h p = if Hist.count h = 0 then Float.nan else Hist.quantile h p

(* One pass over the sojourn slots fills both classes' histograms; a
   NaN slot is a request that never recorded a sojourn. *)
let class_reports (a : arrivals) lat =
  let hists = [| Hist.create (); Hist.create () |] in
  let offered = [| 0; 0 |] in
  for i = 0 to a.n - 1 do
    let k = Bytes.get_uint8 a.kind i in
    offered.(k) <- offered.(k) + 1;
    if not (Float.is_nan lat.(i)) then Hist.add hists.(k) lat.(i)
  done;
  let report k =
    let h = hists.(k) in
    let completed = Hist.count h in
    {
      cr_class = cls_of_id k;
      cr_offered = offered.(k);
      cr_completed = completed;
      cr_mean = (if completed = 0 then Float.nan else Hist.mean h);
      cr_p50 = quantile_or_nan h 50.0;
      cr_p99 = quantile_or_nan h 99.0;
      cr_p999 = quantile_or_nan h 99.9;
      cr_hist = h;
    }
  in
  (report (cls_id Short), report (cls_id Long))

(* ------------------------------------------------------------------ *)
(* The run itself.  Memory per offered request is the schedule's float
   and class byte plus one float sojourn slot; request fibers, their
   closures and promises are garbage once the request completes.
   Completion is one latch: every request decrements [remaining] on
   its way out, exception or not, and the last one releases [drained],
   the only thing the injector ever blocks on. *)

let run ?on_pool c =
  let a = arrivals c in
  let n = a.n in
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:c.domains ?preempt_interval:c.preempt_interval
         ~recorder:c.recorder ~telemetry:c.telemetry ())
  in
  let stop_live = match on_pool with Some f -> f pool | None -> fun () -> () in
  (* Per-request span tracing rides the flight recorder; [traced] is
     captured once so an untraced run pays nothing per request. *)
  let traced = Preempt_core.Recorder.enabled (Fiber.recorder pool) in
  let module R = Preempt_core.Recorder in
  (* Per-request sojourn, written by the request fiber into its own
     slot (disjoint writes, no shared histogram on the hot path). *)
  let lat = Array.make n Float.nan in
  let remaining = Atomic.make n in
  let failure = Atomic.make None in
  let drained = Fiber.Fsync.Semaphore.create 0 in
  let serve i ~due =
    let ch = Bytes.get_uint8 a.kind i in
    let service = if ch = cls_id Long then c.long_service else c.short_service in
    if traced then Fiber.emit_flight R.ev_req_dispatch i 0;
    let deadline = wall () +. service in
    while wall () < deadline do
      if traced && Fiber.preempt_pending () then begin
        (* Bracket the yield we are about to take so the span
           decomposition can attribute the gap to preemption overhead.
           Benignly racy: a flag raised between the probe and [check]
           is taken unbracketed and lands in service time. *)
        Fiber.emit_flight R.ev_req_preempt i 0;
        Fiber.check ();
        Fiber.emit_flight R.ev_req_resume i 0
      end
      else Fiber.check ()
    done;
    (* One clock read feeds the latency sample, the span completion
       timestamp and its sojourn payload, so the decomposition
       reproduces the measured sojourn exactly. *)
    let tdone = wall () in
    let sojourn = tdone -. due in
    lat.(i) <- sojourn;
    if traced then
      Fiber.emit_flight ~at:tdone R.ev_req_done i (int_of_float (sojourn *. 1e9));
    Fiber.telemetry_observe ~channel:ch sojourn
  in
  let t0 = ref 0.0 in
  Fiber.run pool (fun () ->
      t0 := wall ();
      for i = 0 to n - 1 do
        let due = !t0 +. a.at.(i) in
        (* Open loop: spin to the scheduled instant; never wait for
           completions.  No [Fiber.check] here — the injector must not
           be descheduled in favor of a request, or the load would
           throttle itself closed-loop under overload. *)
        while wall () < due do
          ()
        done;
        (* Span head: the request id is the schedule index, allocated
           here at injection and carried into the fiber by capture.
           Arrival is stamped at the *scheduled* instant, so injector
           lateness shows up as an arrival -> enqueue gap. *)
        if traced then begin
          Fiber.emit_flight ~at:due R.ev_req_arrival i (Bytes.get_uint8 a.kind i);
          Fiber.emit_flight R.ev_req_enqueue i 0
        end;
        ignore
          (Fiber.submit pool (fun () ->
               (try serve i ~due
                with e -> ignore (Atomic.compare_and_set failure None (Some e)));
               if Atomic.fetch_and_add remaining (-1) = 1 then
                 Fiber.Fsync.Semaphore.release drained))
      done;
      if n > 0 then Fiber.Fsync.Semaphore.acquire drained);
  let elapsed = wall () -. !t0 in
  let preemptions = Fiber.preemptions pool in
  let subpools = Fiber.stats pool in
  let flight =
    let r = Fiber.recorder pool in
    if Preempt_core.Recorder.enabled r then begin
      (match c.dump with
      | Some path -> Preempt_core.Recorder.save r ~path
      | None -> ());
      Preempt_core.Recorder.events r
    end
    else [||]
  in
  stop_live ();
  Fiber.shutdown pool;
  (* The first request to raise, as awaiting its promise would have. *)
  Option.iter raise (Atomic.get failure);
  let short, long = class_reports a lat in
  {
    r_config = c;
    r_offered = n;
    r_completed = short.cr_completed + long.cr_completed;
    r_elapsed = elapsed;
    r_short = short;
    r_long = long;
    r_preemptions = preemptions;
    r_subpools = subpools;
    r_flight = flight;
  }

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let cls_name = function Short -> "short" | Long -> "long"

let us v = v *. 1e6

let print_text r =
  let c = r.r_config in
  Printf.printf
    "serve: %d request(s) offered over %.2fs (%.0f/s %s, %.0f%% long), %d \
     completed in %.2fs\n"
    r.r_offered c.duration c.rate
    (match c.arrival with
    | Poisson -> "poisson"
    | Bursty { period; on_frac } ->
        Printf.sprintf "bursty %.0f%% of %.0fms" (on_frac *. 100.0)
          (period *. 1e3))
    (c.long_frac *. 100.0) r.r_completed r.r_elapsed;
  Printf.printf "pool: %d domains (worker 0 injects), preemption %s, %d preemptions\n"
    c.domains
    (match c.preempt_interval with
    | None -> "off"
    | Some dt -> Printf.sprintf "%.0f us" (us dt))
    r.r_preemptions;
  let line cr =
    Printf.printf
      "  %-5s %7d/%d done  mean %9.1f us  p50 %9.1f us  p99 %9.1f us  p99.9 \
       %9.1f us\n"
      (cls_name cr.cr_class) cr.cr_completed cr.cr_offered (us cr.cr_mean)
      (us cr.cr_p50) (us cr.cr_p99) (us cr.cr_p999)
  in
  line r.r_short;
  line r.r_long;
  (* Cross-class aggregate: one bucket-wise merge instead of
     re-bucketing the pooled samples. *)
  let all = Hist.merge r.r_short.cr_hist r.r_long.cr_hist in
  if Hist.count all > 0 then
    Printf.printf
      "  %-5s %7d/%d done  mean %9.1f us  p50 %9.1f us  p99 %9.1f us  p99.9 \
       %9.1f us\n"
      "all" (Hist.count all) r.r_offered (us (Hist.mean all))
      (us (quantile_or_nan all 50.0))
      (us (quantile_or_nan all 99.0))
      (us (quantile_or_nan all 99.9))

let jf v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_json r =
  let c = r.r_config in
  let cls_json cr =
    Printf.sprintf
      "{\"offered\":%d,\"completed\":%d,\"mean_s\":%s,\"p50_s\":%s,\"p99_s\":%s,\"p999_s\":%s}"
      cr.cr_offered cr.cr_completed (jf cr.cr_mean) (jf cr.cr_p50)
      (jf cr.cr_p99) (jf cr.cr_p999)
  in
  let all = Hist.merge r.r_short.cr_hist r.r_long.cr_hist in
  let all_json =
    Printf.sprintf
      "{\"completed\":%d,\"mean_s\":%s,\"p50_s\":%s,\"p99_s\":%s,\"p999_s\":%s}"
      (Hist.count all)
      (jf (if Hist.count all = 0 then Float.nan else Hist.mean all))
      (jf (quantile_or_nan all 50.0))
      (jf (quantile_or_nan all 99.0))
      (jf (quantile_or_nan all 99.9))
  in
  Printf.sprintf
    "{\"rate\":%s,\"duration\":%s,\"arrival\":%S,\"long_frac\":%s,\"domains\":%d,\"preempt_interval_s\":%s,\"offered\":%d,\"completed\":%d,\"elapsed_s\":%s,\"preemptions\":%d,\"short\":%s,\"long\":%s,\"overall\":%s}\n"
    (jf c.rate) (jf c.duration)
    (match c.arrival with Poisson -> "poisson" | Bursty _ -> "bursty")
    (jf c.long_frac) c.domains
    (match c.preempt_interval with None -> "null" | Some dt -> jf dt)
    r.r_offered r.r_completed (jf r.r_elapsed) r.r_preemptions
    (cls_json r.r_short) (cls_json r.r_long) all_json
