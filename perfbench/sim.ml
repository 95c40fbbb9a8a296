(* sim: the Fig 6 Skylake fast preset, 16 [Fig6_overhead.run_once]
   calls (the nonpreemptive baseline, then 5 variants x 3 intervals) of
   56 simulated workers x 10 ULTs each.  Single-threaded and
   deterministic; the only workload for desim -> oskernel -> core
   (preempt_core), and it bypasses lib/fiber entirely.  The seed is not
   used. *)

module F = Experiments.Fig6_overhead

let machine = Oskern.Machine.skylake

let workers = 56

let threads_per_worker = 10

let per_thread = 20e-3

let intervals = F.intervals ~fast:true ()

let expected_csv = "results/fig6_skylake.csv"

let calls_per_preset = 1 + (List.length F.variants * List.length intervals)

let ults_per_preset = calls_per_preset * workers * threads_per_worker

let key = function
  | F.Timer_only -> "timer_only"
  | F.Signal_yield_v -> "signal_yield"
  | F.Klt_naive -> "klt_naive"
  | F.Klt_futex -> "klt_futex"
  | F.Klt_futex_local -> "klt_futex_local"

let run_once variant interval =
  F.run_once machine ~workers ~threads_per_worker ~per_thread ~variant ~interval

(* Committed overheads as printed: (variant, interval) -> "%.9g" text.
   Column names contain commas, so the header is matched whole against
   the writer's column order ([F.variants]) instead of being split. *)
let load_expected () =
  let ic = open_in expected_csv in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let header = String.concat "," ("interval_us" :: List.map F.variant_name F.variants) in
  match List.rev !lines with
  | h :: rows when h = header ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun row ->
          match String.split_on_char ',' row with
          | iv :: cells when List.length cells = List.length F.variants ->
              List.iter2 (fun v cell -> Hashtbl.replace tbl (v, iv) cell) F.variants cells
          | _ -> failwith (expected_csv ^ ": malformed row " ^ row))
        rows;
      tbl
  | _ -> failwith (expected_csv ^ ": header is not " ^ header)

(* One preset.  [time] wraps each call (identity when only the preset's
   wall time is wanted).  Every overhead is checked against the CSV at
   its printed precision. *)
let preset expected ~time =
  let baseline = time F.Timer_only None (fun () -> run_once F.Timer_only None) in
  let bad = ref 0 and n = ref 0 in
  List.iter
    (fun v ->
      List.iter
        (fun i ->
          let t = time v (Some i) (fun () -> run_once v (Some i)) in
          (* Same arithmetic as the figure's CSV writer. *)
          let overhead = (t /. baseline) -. 1.0 in
          let got = Printf.sprintf "%.9g" (overhead *. 100.0) in
          incr n;
          match Hashtbl.find_opt expected (v, Printf.sprintf "%.9g" (i *. 1e6)) with
          | Some want when want = got -> ()
          | _ -> incr bad)
        intervals)
    F.variants;
  Report.check ~attempted:!n ~failed:!bad

(* Set-up: load the committed figure and run one warm-up call. *)
let setup () =
  let t0 = Clock.now () in
  let expected = load_expected () in
  ignore (run_once F.Timer_only (Some 1e-2));
  (Clock.now () -. t0, expected)

let run ~seconds =
  let since = Report.mark () in
  Report.heading
    (Printf.sprintf "sim: Fig 6 Skylake fast preset, %d run_once calls of %d x %d ULTs"
       calls_per_preset workers threads_per_worker);
  let setups = Array.init 3 (fun _ -> setup ()) in
  let expected = snd setups.(0) in
  let calls = ref [] and presets = ref [] in
  let time _ _ f =
    let t0 = Clock.now () in
    let v = f () in
    calls := (Clock.now () -. t0) :: !calls;
    v
  in
  (* Stop before a preset that would end past [seconds]: a preset takes
     seconds, so overshooting would stretch the run by one. *)
  let stop = Clock.now () +. seconds in
  let last = ref 0.0 in
  while !presets = [] || Clock.now () +. !last < stop do
    let t0 = Clock.now () in
    preset expected ~time;
    last := Clock.now () -. t0;
    presets := !last :: !presets
  done;
  let calls = Array.of_list !calls and presets = Array.of_list !presets in
  let k = Array.length presets in
  Report.metric ~n:3 "setup_s" "s" (Clock.median (Array.map fst setups));
  Report.metric "top_heap_mb" "MB" (Clock.heap_mb ());
  Report.metric ~n:(k * ults_per_preset) "tasks_per_s" "1/s"
    (float_of_int ults_per_preset /. Clock.median presets);
  Report.note ~n:(Array.length calls) "call_p50_s" "s" (Clock.median calls);
  Report.note ~n:(Array.length calls) "call_p99_s" "s" (Clock.quantile calls 0.99);
  Report.note ~n:k "run_s" "s" (Clock.median presets);
  Report.error_rate since

(* Traced run: one preset timed as a whole, one with every call timed
   and the GC counters read around it. *)
let traced () =
  Report.heading "sim (traced): 2 presets";
  let _, expected = setup () in
  let t0 = Clock.now () in
  preset expected ~time:(fun _ _ f -> f ());
  let plain = Clock.now () -. t0 in
  let per = Hashtbl.create 8 and baseline = ref 0.0 in
  let time v i f =
    let t0 = Clock.now () in
    let r = f () in
    let dt = Clock.now () -. t0 in
    (match i with
    | None -> baseline := dt
    | Some _ ->
        Hashtbl.replace per v (dt +. Option.value ~default:0.0 (Hashtbl.find_opt per v)));
    r
  in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  preset expected ~time;
  let traced = Clock.now () -. t0 in
  let g1 = Gc.quick_stat () in
  let variant_s v = Hashtbl.find per v in
  List.iter
    (fun v -> Report.metric ("sim.variant_s." ^ key v) "s" (variant_s v))
    F.variants;
  List.iter
    (fun v ->
      if v <> F.Timer_only then
        Report.note
          (Printf.sprintf "  %s - timer_only" (key v))
          "s"
          (variant_s v -. variant_s F.Timer_only))
    F.variants;
  Report.metric "sim.gc_minor_words" "words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  let explained =
    !baseline +. List.fold_left (fun s v -> s +. variant_s v) 0.0 F.variants
  in
  Report.metric "recon.sim.explained_frac" "frac" (explained /. traced);
  if Float.abs (1.0 -. (explained /. traced)) > 0.2 then
    Report.flag "sim: %.0f%% of the preset is outside its run_once calls"
      ((1.0 -. (explained /. traced)) *. 100.0);
  Report.metric "trace.sim.overhead_frac" "frac" ((traced /. plain) -. 1.0)
