(** Lock-free work-stealing deque (Chase–Lev).

    The owner pushes and pops at the back (LIFO, cache-friendly);
    thieves steal from the front (FIFO, oldest work first).  No
    operation takes a lock: the owner synchronizes with thieves through
    two atomic indices, with a single CAS only on the last-element race;
    thieves claim elements by CASing the steal index.  See the
    implementation header for the memory-ordering argument and
    docs/INTERNALS.md ("Real runtime hot paths") for how the scheduler
    leans on it. *)

type 'a t

val create : unit -> 'a t

(** Owner only. *)
val push : 'a t -> 'a -> unit

(** Push at the thief end: thieves take it before anything pushed with
    {!push}, and the owner reaches it only after everything pushed with
    {!push} (used for yields, so a yielding fiber goes behind all other
    local work).  Callable from any domain; lands in a CAS-swapped side
    segment, not the Chase–Lev ring. *)
val push_front : 'a t -> 'a -> unit

(** Owner end. *)
val pop : 'a t -> 'a option

(** Thief end.  Callable from any domain; returns [None] only when the
    deque was observed empty (internal CAS races retry). *)
val steal : 'a t -> 'a option

(** Snapshot of the atomic indices plus the front-segment count.
    Exact when no other domain is operating on the deque; under
    concurrency it is an approximation (indices are read one after the
    other), suitable for victim selection and diagnostics only. *)
val length : 'a t -> int
