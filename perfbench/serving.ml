(* serve: Serve.run, open-loop Poisson arrivals at 4000 req/s, 5% long
   (2 ms) / 95% short (20 us) requests, 2 domains (worker 0 injects,
   worker 1 serves), fixed 200 us preemption quantum.

   Mean service is 0.05 x 2 ms + 0.95 x 20 us = 119 us, so the one
   serving worker runs at rho ~ 0.48 and the short tail is set by waits
   behind long requests: a delivered 200 us quantum would cut that
   wait.  Same scheduler as forkjoin, used differently: external FIFO
   submission plus preemption requeues, no worker-side fork/join.  The
   seed picks the arrival schedule. *)

module Hist = Preempt_core.Metrics.Hist

let rate = 4000.0

let quantum = 200e-6

let slo = 1e-3

let windows = 6

let config ~seed ~duration ~traced =
  {
    Serve.default with
    rate;
    duration;
    long_frac = 0.05;
    short_service = 20e-6;
    long_service = 2e-3;
    arrival = Serve.Poisson;
    seed;
    domains = 2;
    preempt_interval = Some quantum;
    adaptive = false;
    recorder = traced;
    telemetry = traced;
  }

(* Window seeds are a pure function of the run's seed. *)
let window_seed seed k = 1 + ((seed land 0xFFFFF) * 64) + k

(* Warm-up requests pushed through the external path before injection,
   part of set-up like the pool build and schedule generation. *)
let warmup pool =
  Fiber.run pool (fun () ->
      let spin () =
        let until = Unix.gettimeofday () +. 20e-6 in
        while Unix.gettimeofday () < until do
          ()
        done
      in
      Array.iter Fiber.await (Array.init 500 (fun _ -> Fiber.submit pool spin)))

(* One window: set-up time (Serve.run entry -> end of warm-up, i.e.
   schedule + pool build + warm-up), the report, and whatever [after]
   read from the live pool before teardown. *)
let window ?(after = fun _ -> ()) cfg =
  let t0 = Clock.now () in
  let setup = ref Float.nan in
  let r =
    Serve.run
      ~on_pool:(fun pool ->
        warmup pool;
        setup := Clock.now () -. t0;
        fun () -> after pool)
      cfg
  in
  (* Every offered request must complete with a finite sojourn: a NaN
     one is not counted as completed, an infinite one would land in the
     overflow bucket. *)
  let overflow h = Hist.bucket_count h (Hist.n_buckets - 1) in
  let bad =
    r.Serve.r_offered - r.Serve.r_completed
    + overflow r.Serve.r_short.Serve.cr_hist
    + overflow r.Serve.r_long.Serve.cr_hist
  in
  Report.check ~attempted:r.Serve.r_offered ~failed:bad;
  (!setup, r)

(* Short requests that completed within the SLO, read off the exact
   bucket edge at 1 ms. *)
let within_slo h =
  Array.fold_left
    (fun acc (_, hi, c) -> if hi <= slo *. (1.0 +. 1e-9) then acc + c else acc)
    0 (Hist.nonzero h)

let q h p = if Hist.count h = 0 then Float.nan else Hist.quantile h p

let run ~seed ~seconds =
  let since = Report.mark () in
  let duration = seconds /. float_of_int windows in
  Report.heading
    (Printf.sprintf
       "serve: %.0f req/s Poisson, 5%% long 2 ms / 95%% short 20 us, 2 domains, \
        fixed %.0f us quantum, %d windows x %.2f s"
       rate (quantum *. 1e6) windows duration);
  let short = ref (Hist.create ()) and long = ref (Hist.create ()) in
  let offered_short = ref 0 and completed = ref 0 and elapsed = ref 0.0 in
  let preempts = ref 0 in
  let setups =
    Array.init windows (fun k ->
        let setup, r =
          window (config ~seed:(window_seed seed k) ~duration ~traced:false)
        in
        short := Hist.merge !short r.Serve.r_short.Serve.cr_hist;
        long := Hist.merge !long r.Serve.r_long.Serve.cr_hist;
        offered_short := !offered_short + r.Serve.r_short.Serve.cr_offered;
        completed := !completed + r.Serve.r_completed;
        elapsed := !elapsed +. r.Serve.r_elapsed;
        preempts := !preempts + r.Serve.r_preemptions;
        Printf.printf
          "  window %d: %d/%d done in %.3f s, short p50 %.3g s p99 %.3g s, %d \
           preemptions\n"
          k r.Serve.r_completed r.Serve.r_offered r.Serve.r_elapsed
          (q r.Serve.r_short.Serve.cr_hist 50.0)
          (q r.Serve.r_short.Serve.cr_hist 99.0)
          r.Serve.r_preemptions;
        setup)
  in
  let ns = Hist.count !short in
  Report.metric ~n:windows "setup_s" "s" (Clock.median setups);
  Report.metric "top_heap_mb" "MB" (Clock.heap_mb ());
  Report.metric ~n:!completed "tasks_per_s" "1/s"
    (float_of_int !completed /. !elapsed);
  Report.note ~n:ns "short_p50_s" "s" (q !short 50.0);
  Report.note ~n:ns "short_p99_s" "s" (q !short 99.0);
  Report.note ~n:(Hist.count !long) "long_p99_s" "s" (q !long 99.0);
  Report.note ~n:!offered_short "short_slo_frac" "frac"
    (float_of_int (within_slo !short) /. float_of_int (max 1 !offered_short));
  Report.error_rate since;
  Report.note "ticker.delivered_ratio" "ratio"
    (float_of_int !preempts /. (float_of_int windows *. duration /. quantum))

(* ------------------------------------------------------------------ *)
(* Traced run: one untraced window (ticker figures, reference
   latencies), then one window with the flight recorder and telemetry
   armed through their existing config flags. *)

let traced ~seed ~seconds =
  let duration = 0.2 *. seconds in
  Report.heading
    (Printf.sprintf "serve (traced): 2 windows x %.2f s, seed %d" duration seed);
  let _, plain = window (config ~seed:(window_seed seed 0) ~duration ~traced:false) in
  let util = ref Float.nan in
  let read_util pool =
    (* Serving worker's mean utilization over its retained samples. *)
    let pts = Preempt_core.Telemetry.series (Fiber.telemetry pool) ~worker:1 in
    util := Clock.mean (Array.map (fun p -> p.Preempt_core.Telemetry.p_util) pts)
  in
  let _, tr =
    window ~after:read_util (config ~seed:(window_seed seed 1) ~duration ~traced:true)
  in
  let serving_workers = 1.0 in
  let pre = float_of_int plain.Serve.r_preemptions in
  Report.metric ~n:plain.Serve.r_preemptions "ticker.preemptions_per_s" "1/s"
    (pre /. duration);
  Report.metric "ticker.delivered_ratio" "ratio"
    (pre /. (serving_workers *. duration /. quantum));
  let flight = tr.Serve.r_flight in
  let obs =
    Experiments.Observe.of_dump
      {
        Preempt_core.Recorder.d_n_rings = 3;
        d_capacity = 4096;
        d_events = flight;
        d_overwritten = [||];
      }
  in
  let module O = Experiments.Observe in
  let spans =
    match obs.O.r_spans with
    | Some s -> s
    | None -> failwith "serve: traced window recorded no request spans"
  in
  let rows cls = List.filter (fun r -> r.O.sr_class = cls) spans.O.spn_rows in
  let field f rs = Array.of_list (List.map f rs) in
  let short = rows 0 and long = rows 1 in
  let queue = field (fun r -> r.O.sr_queue) short in
  let service = field (fun r -> r.O.sr_service) short in
  let overhead = field (fun r -> r.O.sr_overhead) short in
  (* Arrival (scheduled instant) -> enqueue (the injector's submit): how
     late the generator ran. *)
  let late =
    let arrival = Hashtbl.create 4096 in
    let module R = Preempt_core.Recorder in
    Array.iter
      (fun e ->
        if e.R.e_code = R.ev_req_arrival then Hashtbl.replace arrival e.R.e_a e.R.e_ts)
      flight;
    Array.of_list
      (Array.fold_left
         (fun acc e ->
           if e.R.e_code = R.ev_req_enqueue then
             match Hashtbl.find_opt arrival e.R.e_a with
             | Some a -> (e.R.e_ts -. a) :: acc
             | None -> acc
           else acc)
         [] flight)
  in
  Report.metric ~n:(Array.length queue) "serve.queue_p50_s" "s" (Clock.median queue);
  Report.metric ~n:(Array.length queue) "serve.queue_p99_s" "s"
    (Clock.quantile queue 0.99);
  Report.metric ~n:(Array.length service) "serve.service_p50_s" "s"
    (Clock.median service);
  Report.metric ~n:(List.length long) "serve.preempt_overhead_s" "s"
    (if long = [] then 0.0 else Clock.mean (field (fun r -> r.O.sr_overhead) long));
  Report.metric ~n:(Array.length late) "serve.inject_late_p99_s" "s"
    (Clock.quantile late 0.99);
  Report.metric "serve.worker_util" "frac" !util;
  Report.metric ~n:tr.Serve.r_offered "serve.spans_complete" "count"
    (float_of_int spans.O.spn_complete);
  Report.metric "serve.spans_verified_frac" "frac"
    (float_of_int spans.O.spn_verified
    /. float_of_int (max 1 spans.O.spn_complete));
  (* Verified spans: queue + service + overhead must equal the measured
     sojourn (ns-truncated payload, so within a microsecond). *)
  let residual =
    List.fold_left
      (fun m r ->
        if r.O.sr_exact then Float.max m (Float.abs (r.O.sr_total -. r.O.sr_sojourn))
        else m)
      0.0 spans.O.spn_rows
  in
  Report.note "  max |span sum - sojourn|, verified spans" "s" residual;
  if residual > 1e-6 then
    Report.flag "serve: verified spans miss their measured sojourn by %.3g s" residual;
  if spans.O.spn_verified < spans.O.spn_complete then
    Report.flag "serve: %d of %d complete spans do not sum to their sojourn"
      (spans.O.spn_complete - spans.O.spn_verified) spans.O.spn_complete;
  (* Reconciliation on the short class: the mean span sum against the
     mean measured sojourn of the same requests, then each layer's
     share of it. *)
  let sojourn = Clock.mean (field (fun r -> r.O.sr_sojourn) short) in
  let q_m = Clock.mean queue and s_m = Clock.mean service and o_m = Clock.mean overhead in
  let share = (q_m +. s_m +. o_m) /. sojourn in
  Report.metric "recon.serve.explained_frac" "frac" share;
  Report.note "  short queue share" "frac" (q_m /. sojourn);
  Report.note "  short service share" "frac" (s_m /. sojourn);
  Report.note "  short preemption share" "frac" (o_m /. sojourn);
  Report.note "  short service above its 20 us spin" "s" (s_m -. 20e-6);
  if Float.abs (1.0 -. share) > 0.2 then
    Report.flag "serve: %.0f%% of short sojourn is not explained by spans"
      (Float.abs (1.0 -. share) *. 100.0);
  let p50 r = q r.Serve.r_short.Serve.cr_hist 50.0 in
  Report.note "  untraced short p50" "s" (p50 plain);
  Report.note "  traced short p50" "s" (p50 tr);
  Report.metric "trace.serve.overhead_frac" "frac" ((p50 tr /. p50 plain) -. 1.0)
