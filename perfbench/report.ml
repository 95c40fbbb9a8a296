(* Result sink.  Every metric is printed once as a readable line and
   kept for the closing JSON object, whose keys are exactly the names
   BENCHMARK.json declares for the run's mode ([run.py] re-checks that).
   [note] lines are printed only: figures worth reading that are not part
   of the gated set. *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

(* Prepended to metric names when one process runs several workloads. *)
let prefix = ref ""

let attempted = ref 0

let failed = ref 0

let flags = ref 0

let fmt v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v

let line ?n name unit_ value =
  Printf.printf "  %-34s %14s %-9s%s\n" name (fmt value) unit_
    (match n with Some n -> Printf.sprintf " n=%d" n | None -> "")

let metric ?n name unit_ value =
  metrics := { name = !prefix ^ name; value; unit_ } :: !metrics;
  line ?n name unit_ value

let note ?n name unit_ value = line ?n name unit_ value

let heading s = Printf.printf "%s\n%!" s

(* A reconciliation or consistency finding a reader must look at; it
   does not make the run incorrect. *)
let flag fmt =
  incr flags;
  Printf.ksprintf (fun s -> Printf.printf "  FLAG %s\n" s) fmt

let check ~attempted:a ~failed:f =
  attempted := !attempted + a;
  failed := !failed + f

(* Failures over attempts since [mark], for the readable report. *)
let mark () = (!attempted, !failed)

let error_rate (a0, f0) =
  note "error_rate" "frac"
    (float_of_int (!failed - f0) /. float_of_int (max 1 (!attempted - a0)))

let json_number v = Printf.sprintf "%.17g" v

(* The closing line.  A metric that could not be measured (non-finite)
   makes the run incorrect rather than printing a fake number. *)
let json () =
  let ms = List.rev !metrics in
  let finite = List.for_all (fun m -> Float.is_finite m.value) ms in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (if Float.is_finite m.value then json_number m.value else "0")
             m.unit_)
         ms)
  in
  (* A run that attempted nothing has failed at its one job. *)
  let attempted, failed =
    if !attempted = 0 then (1, 1) else (!attempted, !failed)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (finite && failed = 0) attempted failed body
