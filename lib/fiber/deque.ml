(* Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA '05) on
   OCaml [Atomic], plus a lock-free front segment for [push_front].

   The ring holds everything pushed with [push]: a power-of-two
   ['a option array] indexed by free-running [top] (steal end) and
   [bottom] (owner end).  The owner pushes and pops at [bottom] with no
   CAS except on the last-element race; a thief CASes [top] to claim the
   oldest element.  No mutex is taken on any operation — the spawn →
   steal fast path of the scheduler is lock-free end to end (grep
   invariant: no [Mutex.lock] in this file).

   Memory-ordering argument (OCaml memory model, all [Atomic] accesses
   are SC):

   - The owner publishes an element with a plain array store followed by
     [Atomic.set bottom].  A thief reads [top]; then [bottom]; then the
     buffer.  Observing [bottom > top] therefore happens-after the
     publishing store, so the plain read of the slot sees the element.
   - Slot reuse cannot hand a thief a wrong value: the owner only
     rewrites slot [i land mask] for index [i = top + capacity] after a
     push observed [top] advanced past the thief's claim, which forces
     the thief's CAS on [top] to fail and the stale read to be
     discarded.
   - The buffer itself lives in an [Atomic] so that a thief that
     observed a [bottom] written after a grow is guaranteed (by the SC
     total order: grow's buffer store precedes that [bottom] store) to
     also observe the grown buffer rather than indexing a too-small
     stale one.
   - On the last-element race both the owner and the thief CAS
     [top]; exactly one wins, the loser reports empty/retries.

   Stolen slots are not cleared (a thief writing the array would race
   with an owner push one lap ahead); at most [capacity] already-claimed
   elements are therefore kept live until their slot is overwritten or
   the ring grows.  For the scheduler's task closures this retention is
   short-lived and bounded.  The owner does clear slots it pops.

   [push_front] (yield re-queue: rare, a handful per preemption tick)
   cannot go into a Chase–Lev ring — the top end admits no producer — so
   it lands in an owner-agnostic front segment: an immutable two-list
   deque swapped by CAS.  Logically the segment sits wholly on the thief
   side of the ring, preserving the historical order: thieves take the
   newest front-pushed element first, the owner reaches the oldest
   front-pushed element only after draining the ring. *)

type 'a seg = {
  snew : 'a list; (* head = thief end (newest push_front) *)
  sold : 'a list; (* head = owner end (oldest push_front) *)
  slen : int;
}

let empty_seg = { snew = []; sold = []; slen = 0 }

type 'a t = {
  top : int Atomic.t; (* next steal index *)
  bottom : int Atomic.t; (* next push index; ring size = bottom - top *)
  buf : 'a option array Atomic.t;
  front : 'a seg Atomic.t;
}

let min_capacity = 16

let create () =
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Atomic.make (Array.make min_capacity None);
    front = Atomic.make empty_seg;
  }

(* Owner only.  Indices are preserved across the copy (free-running,
   wrapped by the new mask), so concurrent thieves keep working: every
   live index is valid in both the old and the new buffer. *)
let grow t b tp a =
  let n = Array.length a in
  let na = Array.make (2 * n) None in
  for i = tp to b - 1 do
    na.(i land ((2 * n) - 1)) <- a.(i land (n - 1))
  done;
  Atomic.set t.buf na

let push t x =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  let a = Atomic.get t.buf in
  let a =
    if b - tp >= Array.length a then begin
      grow t b tp a;
      Atomic.get t.buf
    end
    else a
  in
  a.(b land (Array.length a - 1)) <- Some x;
  Atomic.set t.bottom (b + 1)

(* CAS-swap the front segment through [f] until it sticks.  Lock-free:
   a failed CAS means another operation completed. *)
let rec seg_update t f =
  let s = Atomic.get t.front in
  match f s with
  | None -> None
  | Some (x, s') ->
      if Atomic.compare_and_set t.front s s' then Some x else seg_update t f

let push_front t x =
  ignore
    (seg_update t (fun s ->
         Some (x, { s with snew = x :: s.snew; slen = s.slen + 1 })))

(* Thief end of the segment: newest front-pushed element. *)
let seg_steal t =
  if (Atomic.get t.front).slen = 0 then None
  else
    seg_update t (fun s ->
        match s.snew with
        | x :: r -> Some (x, { s with snew = r; slen = s.slen - 1 })
        | [] -> (
            match List.rev s.sold with
            | [] -> None
            | x :: r -> Some (x, { snew = r; sold = []; slen = s.slen - 1 })))

(* Owner end of the segment: oldest front-pushed element. *)
let seg_pop t =
  if (Atomic.get t.front).slen = 0 then None
  else
    seg_update t (fun s ->
        match s.sold with
        | x :: r -> Some (x, { s with sold = r; slen = s.slen - 1 })
        | [] -> (
            match List.rev s.snew with
            | [] -> None
            | x :: r -> Some (x, { snew = []; sold = r; slen = s.slen - 1 })))

let pop t =
  let b0 = Atomic.get t.bottom in
  if b0 = Atomic.get t.top then
    (* Ring empty from the owner's side ([bottom] is owner-written, so
       this view is exact); fall through to the front segment. *)
    seg_pop t
  else begin
    let b = b0 - 1 in
    Atomic.set t.bottom b;
    (* SC store-then-load: thieves that miss this [bottom] cannot claim
       index [b] behind our back. *)
    let tp = Atomic.get t.top in
    if b < tp then begin
      (* Raced to empty after the pre-check. *)
      Atomic.set t.bottom (b + 1);
      seg_pop t
    end
    else begin
      let a = Atomic.get t.buf in
      let i = b land (Array.length a - 1) in
      if b > tp then begin
        let x = a.(i) in
        a.(i) <- None;
        x
      end
      else begin
        (* Last ring element: race a thief for it via [top]. *)
        let x = a.(i) in
        let won = Atomic.compare_and_set t.top tp (tp + 1) in
        Atomic.set t.bottom (b + 1);
        if won then begin
          a.(i) <- None;
          x
        end
        else seg_pop t
      end
    end
  end

let rec steal t =
  match seg_steal t with
  | Some _ as r -> r
  | None ->
      let tp = Atomic.get t.top in
      let b = Atomic.get t.bottom in
      if b - tp <= 0 then None
      else
        let a = Atomic.get t.buf in
        let x = a.(tp land (Array.length a - 1)) in
        if Atomic.compare_and_set t.top tp (tp + 1) then x
        else
          (* Another thief (or the owner's last-element pop) claimed
             index [tp]; someone made progress, so retry. *)
          steal t

(* Racy snapshot: [top] may advance and the segment may churn between
   the reads, so concurrent callers get an approximation — good enough
   for victim selection.  Sequentially (owner-only) it is exact.

   The ring term can be transiently negative under concurrency and must
   be clamped before it is combined with the segment count: the owner's
   [pop] briefly holds [bottom = top - 1] on the race-to-empty path, and
   a thief's CAS can advance [top] between our two index reads — either
   way a raw [bottom - top] would drag the total below the (always
   non-negative) segment contribution, and callers that sum snapshots
   across deques (sub-pool idleness heuristics) would see phantom
   negative backlogs.  test_deque_model and fiber_smoke's concurrent
   sampler pin [length >= 0]. *)
let length t =
  let s = Atomic.get t.front in
  let ring = Atomic.get t.bottom - Atomic.get t.top in
  Stdlib.max 0 ring + s.slen
