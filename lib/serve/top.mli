(** The live view behind [repro top]: a display thread samples a
    pool's {!Preempt_core.Telemetry} rings and {!Fiber.stats} at a
    fixed period (1 Hz default) and renders per-sub-pool worker tables
    with queue-depth sparklines, steal split, park/wake counts and
    rolling p50/p99 per service class —
    either as an ANSI terminal redraw or as one JSON object per tick
    (JSONL, for machines).

    Frame construction ({!frame}) and rendering ({!frame_to_string},
    {!frame_to_json}, {!sparkline}) are pure given the sampled values,
    so they are unit-tested without a live pool; only {!attach}
    touches threads.  Attach via [Serve.run ~on_pool:(Top.attach
    ~mode:...)] or [repro serve --top]. *)

type mode = Text | Jsonl

type row = {
  t_worker : int;
  t_subpool : string;
  t_depth : int;  (** latest sampled run-queue depth *)
  t_steals_in : int;  (** cumulative *)
  t_steals_out : int;  (** cumulative, sub-pool level *)
  t_parks : int;  (** cumulative *)
  t_wakes : int;  (** cumulative *)
  t_util : float;  (** 0..1, last sample period *)
  t_spark : int array;  (** recent queue-depth series, oldest first *)
}

type frame = {
  f_ts : float;  (** newest sample timestamp (pool clock) *)
  f_rows : row list;  (** worker order *)
  f_subpools : Fiber.subpool_stats list;
  f_quantiles : (string * int * float * float) list;
      (** per telemetry channel: class name, window sample count,
          rolling p50, rolling p99 (NaN when the window is empty) *)
}

val frame : Fiber.pool -> frame
(** Snapshot the pool's telemetry and stats into one frame.  Reads
    racy rings (a point mid-overwrite may tear); fine at display
    rates. *)

val sparkline : int array -> string
(** Depths as block glyphs, scaled to the window's own maximum; an
    all-zero window renders as blanks. *)

val frame_to_string : frame -> string
(** Multi-line terminal table (no ANSI escapes — {!attach} adds the
    clear-screen prefix). *)

val frame_to_json : frame -> string
(** One-line JSON object: [ts], per-class rolling
    quantiles, per-sub-pool counters, per-worker rows. *)

val attach : ?period:float -> ?out:out_channel -> mode:mode -> Fiber.pool -> (unit -> unit)
(** Start the display thread redrawing every [period] seconds (default
    1.0) and return the detach closure: it stops the thread, joins it,
    and emits one final frame (so short runs still show their end
    state).  Calling the closure twice is harmless.  Made to be passed
    as [Serve.run]'s [?on_pool]. *)
