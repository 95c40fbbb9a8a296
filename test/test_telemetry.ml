(* Live telemetry unit tests: ring wraparound against a reference
   model (QCheck), input clamping, the disabled zero-write path,
   sampler determinism (two instances fed the same sequence are
   indistinguishable), sliding-window rotation semantics, and the pure
   rendering half of the [repro top] live view. *)

open Preempt_core
module T = Telemetry
module H = Metrics.Hist

let mk ?(workers = 1) ?(capacity = 4) ?(channels = 1) () =
  let t = T.create ~n_workers:workers ~capacity ~channels in
  T.set_enabled t true;
  t

(* Feed a deterministic sample stream; [i] seeds every field so equal
   indices produce byte-equal points. *)
let feed t ~worker i =
  T.sample t ~worker
    ~ts:(float_of_int i *. 1e-3)
    ~depth:(i mod 5) ~steals_in:i ~steals_out:(i / 2) ~parks:(i * 2)
    ~wakes:((i * 2) - 1)
    ~util:(float_of_int (i mod 10) /. 10.0)

(* ------------------------------------------------------------------ *)
(* Ring model: after n samples the series is exactly the last
   [min n capacity] indices, oldest first, seq = index. *)

let wraparound_check =
  QCheck.Test.make ~count:200 ~name:"telemetry ring vs reference model"
    QCheck.(pair (int_range 1 16) (int_range 0 64))
    (fun (capacity, n) ->
      let t = T.create ~n_workers:1 ~capacity ~channels:0 in
      T.set_enabled t true;
      for i = 0 to n - 1 do
        feed t ~worker:0 i
      done;
      let s = T.series t ~worker:0 in
      let kept = min n capacity in
      let first = n - kept in
      T.total_samples t = n
      && T.samples t ~worker:0 = n
      && Array.length s = kept
      && Array.for_all Fun.id
           (Array.mapi
              (fun k (p : T.point) ->
                p.T.p_seq = first + k
                && p.T.p_steals_in = first + k
                && p.T.p_ts = float_of_int (first + k) *. 1e-3)
              s))

let test_latest () =
  let t = mk ~capacity:3 () in
  Alcotest.(check bool) "empty latest" true (T.latest t ~worker:0 = None);
  for i = 0 to 6 do
    feed t ~worker:0 i
  done;
  match T.latest t ~worker:0 with
  | None -> Alcotest.fail "latest missing after samples"
  | Some p -> Alcotest.(check int) "latest is the newest seq" 6 p.T.p_seq

let test_clamping () =
  let t = mk ~capacity:4 () in
  T.sample t ~worker:0 ~ts:0.0 ~depth:(-3) ~steals_in:(-1) ~steals_out:(-2)
    ~parks:(-4) ~wakes:(-5) ~util:7.5;
  T.sample t ~worker:0 ~ts:1.0 ~depth:1 ~steals_in:1 ~steals_out:1 ~parks:1
    ~wakes:1 ~util:(-0.5);
  let s = T.series t ~worker:0 in
  let p0 = s.(0) and p1 = s.(1) in
  Alcotest.(check int) "depth clamped" 0 p0.T.p_depth;
  Alcotest.(check int) "steals_in clamped" 0 p0.T.p_steals_in;
  Alcotest.(check int) "steals_out clamped" 0 p0.T.p_steals_out;
  Alcotest.(check int) "parks clamped" 0 p0.T.p_parks;
  Alcotest.(check int) "wakes clamped" 0 p0.T.p_wakes;
  Alcotest.(check (float 0.0)) "util ceiling" 1.0 p0.T.p_util;
  Alcotest.(check (float 0.0)) "util floor" 0.0 p1.T.p_util

let test_disabled_writes_nothing () =
  let t = T.create ~n_workers:2 ~capacity:4 ~channels:1 in
  Alcotest.(check bool) "starts disabled" false (T.enabled t);
  feed t ~worker:0 0;
  T.observe t ~worker:0 ~channel:0 1e-3;
  Alcotest.(check int) "no samples recorded" 0 (T.total_samples t);
  Alcotest.(check int) "no series points" 0
    (Array.length (T.series t ~worker:0));
  Alcotest.(check int) "no window samples" 0
    (H.count (T.channel_sketch t ~channel:0))

let test_determinism () =
  (* Two instances fed the identical stream — interleaved across
     workers differently — retain byte-identical per-worker series. *)
  let a = mk ~workers:2 ~capacity:5 () and b = mk ~workers:2 ~capacity:5 () in
  for i = 0 to 17 do
    feed a ~worker:(i mod 2) i;
    T.observe a ~worker:(i mod 2) ~channel:0 (float_of_int i *. 1e-4)
  done;
  (* b: all of worker 0's stream first, then worker 1's. *)
  for w = 0 to 1 do
    for i = 0 to 17 do
      if i mod 2 = w then begin
        feed b ~worker:w i;
        T.observe b ~worker:w ~channel:0 (float_of_int i *. 1e-4)
      end
    done
  done;
  for w = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "worker %d series equal" w)
      true
      (T.series a ~worker:w = T.series b ~worker:w)
  done;
  Alcotest.(check int) "sketch counts equal"
    (H.count (T.channel_sketch a ~channel:0))
    (H.count (T.channel_sketch b ~channel:0))

let test_clear () =
  let t = mk () in
  for i = 0 to 5 do
    feed t ~worker:0 i;
    T.observe t ~worker:0 ~channel:0 1e-3
  done;
  T.clear t;
  Alcotest.(check bool) "still enabled" true (T.enabled t);
  Alcotest.(check int) "samples dropped" 0 (T.total_samples t);
  Alcotest.(check int) "window dropped" 0
    (H.count (T.channel_sketch t ~channel:0))

(* ------------------------------------------------------------------ *)
(* Sliding window: sketch covers current + previous rotation period
   and nothing older. *)

let test_window_rotation () =
  let w = T.Window.create () in
  Alcotest.(check int) "empty" 0 (T.Window.count w);
  T.Window.add w 1e-3;
  T.Window.add w 1e-3;
  Alcotest.(check int) "current counted" 2 (T.Window.count w);
  T.Window.rotate w;
  T.Window.add w 1e-6;
  (* One rotation back: both periods visible. *)
  Alcotest.(check int) "previous + current" 3 (T.Window.count w);
  let sk = T.Window.sketch w in
  Alcotest.(check int) "sketch covers both" 3 (H.count sk);
  T.Window.rotate w;
  (* Two rotations: the first period's 1e-3 samples age out. *)
  Alcotest.(check int) "oldest period retired" 1 (T.Window.count w);
  T.Window.rotate w;
  Alcotest.(check int) "fully drained" 0 (T.Window.count w)

let test_channel_sketch_merges_workers () =
  let t = mk ~workers:3 ~channels:2 () in
  T.observe t ~worker:0 ~channel:0 1e-3;
  T.observe t ~worker:1 ~channel:0 1e-3;
  T.observe t ~worker:2 ~channel:1 1e-6;
  Alcotest.(check int) "channel 0 spans workers" 2
    (H.count (T.channel_sketch t ~channel:0));
  Alcotest.(check int) "channel 1 isolated" 1
    (H.count (T.channel_sketch t ~channel:1))

let test_create_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "n_workers = 0" (fun () ->
      T.create ~n_workers:0 ~capacity:4 ~channels:0);
  expect_invalid "capacity = 0" (fun () ->
      T.create ~n_workers:1 ~capacity:0 ~channels:0);
  expect_invalid "channels < 0" (fun () ->
      T.create ~n_workers:1 ~capacity:4 ~channels:(-1))

(* ------------------------------------------------------------------ *)
(* The pure rendering half of the live view (lib/serve/top.ml). *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Top.sparkline [||]);
  Alcotest.(check string) "all zero is blank" "   " (Top.sparkline [| 0; 0; 0 |]);
  let s = Top.sparkline [| 0; 1; 8 |] in
  Alcotest.(check bool) "max renders full block" true
    (Astring_contains.contains s "█");
  (* Rendering is scale-relative: doubling every depth is invisible. *)
  Alcotest.(check string) "scale invariant"
    (Top.sparkline [| 1; 2; 4 |])
    (Top.sparkline [| 2; 4; 8 |])

let test_frame_to_json_shape () =
  let frame =
    {
      Top.f_ts = 1.5;
      f_rows =
        [
          {
            Top.t_worker = 0;
            t_subpool = "default";
            t_depth = 2;
            t_steals_in = 3;
            t_steals_out = 1;
            t_parks = 10;
            t_wakes = 9;
            t_util = 0.5;
            t_spark = [| 0; 1; 2 |];
          };
        ];
      f_subpools = [];
      f_quantiles = [ ("short", 0, Float.nan, Float.nan) ];
    }
  in
  let j = Top.frame_to_json frame in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true
        (Astring_contains.contains j sub))
    [
      "\"ts\":1.5";
      "\"steals_out\":1";
      "\"class\":\"short\"";
      (* Empty windows serialize as null, not NaN (invalid JSON). *)
      "\"p50_s\":null";
      "\"worker\":0";
      "\"util\":0.5";
    ];
  Alcotest.(check bool) "no bare nan leaks" false
    (Astring_contains.contains j "nan");
  let t = Top.frame_to_string frame in
  Alcotest.(check bool) "text view mentions the worker table" true
    (Astring_contains.contains t "wkr")

let suite =
  [
    QCheck_alcotest.to_alcotest wraparound_check;
    Alcotest.test_case "latest" `Quick test_latest;
    Alcotest.test_case "hostile inputs clamp" `Quick test_clamping;
    Alcotest.test_case "disabled path writes nothing" `Quick
      test_disabled_writes_nothing;
    Alcotest.test_case "sampler determinism" `Quick test_determinism;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "window rotation" `Quick test_window_rotation;
    Alcotest.test_case "channel sketch merges workers" `Quick
      test_channel_sketch_merges_workers;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "frame rendering" `Quick test_frame_to_json_shape;
  ]
