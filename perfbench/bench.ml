(* Benchmark entry point, normally started through perfbench/run.py:

     bench.exe --workload forkjoin|serve|sim --seed N --seconds S --trace 0|1

   --trace 0 runs the named workload untraced for S seconds and prints
   its end-to-end metrics; [--workload all] runs the three in turn in
   this one process, each for S seconds, with metric names prefixed by
   the workload.  --trace 1 prints the per-layer ledger: every
   layer is measured on the workload that exercises it (forkjoin for
   lib/fiber, serve for the ticker and lib/serve, sim for the simulated
   stack), with reconciliation and tracing overhead, so the same metric
   set comes out whichever workload is named.  The last line of stdout
   is the JSON result.  [--host] prints the runtime's half of the host
   record instead (OCaml version, recommended domain count). *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let host () =
    Printf.printf "{\"ocaml\": %S, \"recommended_domain_count\": %d}\n"
      Sys.ocaml_version
      (Domain.recommended_domain_count ());
    exit 0
  in
  Arg.parse
    [
      ("--host", Arg.Unit host, " print the host record and exit");
      ("--workload", Arg.Set_string workload, "forkjoin|serve|sim|all");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let runs =
    [
      ("forkjoin", fun seconds -> Forkjoin.run ~seconds);
      ("serve", fun seconds -> Serving.run ~seed:!seed ~seconds);
      ("sim", fun seconds -> Sim.run ~seconds);
    ]
  in
  if not (!workload = "all" || List.mem_assoc !workload runs) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  if Domain.recommended_domain_count () < 2 then begin
    prerr_endline "bench: the workloads need 2 cores";
    exit 2
  end;
  let seconds = Float.max 0.1 !seconds in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed
    seconds !trace;
  (match !trace with
  | 0 when !workload = "all" ->
      List.iter
        (fun (name, run) ->
          Report.prefix := name ^ ".";
          run seconds)
        runs
  | 0 -> (List.assoc !workload runs) seconds
  | _ ->
      Forkjoin.traced ~seconds;
      Serving.traced ~seed:!seed ~seconds;
      Sim.traced ());
  if !Report.flags > 0 then
    Printf.printf "%d finding(s) flagged above\n" !Report.flags;
  print_endline (Report.json ())
