(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Fig. 4, Fig. 6, Table 1, Fig. 7, Fig. 8, Fig. 9) on the
   simulated substrate, then runs Bechamel microbenchmarks of the real
   fiber runtime (the native-hardware analogue of Table 1's "threading
   operations are cheap" claim).

   Default is the fast preset (a subset of each sweep; ~ a few minutes).
   Pass --full for the paper-scale sweeps. *)

let wall = Unix.gettimeofday

let section name f =
  let t0 = wall () in
  let r = f () in
  Printf.printf "[%s done in %.1fs wall]\n%!" name (wall () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the real fiber runtime. *)

let fiber_microbench () =
  print_newline ();
  Experiments.Exputil.heading "Real fiber runtime microbenchmarks (Bechamel, this machine)";
  let pool = Fiber.make (Fiber.Config.make ~domains:2 ()) in
  let spawn_join_n n () =
    Fiber.run pool (fun () ->
        let ps = List.init n (fun i -> Fiber.spawn (fun () -> i)) in
        List.iter (fun p -> ignore (Fiber.await p)) ps)
  in
  let yields_n n () =
    Fiber.run pool (fun () ->
        for _ = 1 to n do
          Fiber.yield ()
        done)
  in
  let deque_ops n () =
    let d = Fiber.Deque.create () in
    for i = 1 to n do
      Fiber.Deque.push d i
    done;
    for _ = 1 to n do
      ignore (Fiber.Deque.pop d)
    done
  in
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"fiber"
      [
        Test.make ~name:"spawn+await x100" (Staged.stage (spawn_join_n 100));
        Test.make ~name:"yield x1000" (Staged.stage (yields_n 1000));
        Test.make ~name:"deque push/pop x1000" (Staged.stage (deque_ops 1000));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Printf.printf "%-30s %12.0f ns/run\n" name est
        | _ -> Printf.printf "%-30s (no estimate)\n" name)
      results
  in
  benchmark ();
  Fiber.shutdown pool

let () =
  let full = Array.exists (fun a -> a = "--full") Sys.argv in
  let fast = not full in
  (* Observability flags: --metrics prints counters + latency histograms
     of the last instrumented run; --chrome-trace FILE exports it as a
     Chrome trace_events JSON (see docs/observability.md). *)
  let rec parse_obs = function
    | "--metrics" :: rest ->
        Experiments.Exputil.Obs.metrics := true;
        parse_obs rest
    | "--chrome-trace" :: file :: rest ->
        Experiments.Exputil.Obs.chrome_trace := Some file;
        parse_obs rest
    | _ :: rest -> parse_obs rest
    | [] -> ()
  in
  parse_obs (Array.to_list Sys.argv);
  Printf.printf "preempt benchmark harness — %s preset\n"
    (if fast then "fast (use --full for paper-scale sweeps)" else "full");
  section "fig4" (fun () -> ignore (Experiments.Fig4_interrupt.run ~fast ()));
  section "fig6" (fun () -> ignore (Experiments.Fig6_overhead.run ~fast ()));
  section "table1" (fun () -> ignore (Experiments.Table1_preempt_cost.run ~fast ()));
  section "fig7" (fun () -> ignore (Experiments.Fig7_cholesky.run ~fast ()));
  section "fig8" (fun () -> ignore (Experiments.Fig8_packing.run ~fast ()));
  section "fig9" (fun () -> ignore (Experiments.Fig9_insitu.run ~fast ()));
  section "sec3.5.1" (fun () -> ignore (Experiments.Sec351_syscalls.run ~fast ()));
  section "fiber-microbench" fiber_microbench;
  if Experiments.Exputil.Obs.requested () then Experiments.Exputil.Obs.report ();
  print_newline ();
  print_endline "All tables and figures regenerated. See EXPERIMENTS.md for the";
  print_endline "paper-vs-measured comparison."
