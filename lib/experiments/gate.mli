(** Re-measure-once ratio gates for wall-clock perf assertions.

    The shared decision logic behind bench/perf.ml's same-process
    gates (sub-pool isolation, d4/d1 scaling): a ratio must clear a
    minimum; the claim needs a minimum core count or the assertion is
    skipped (ratio still printed); and a failing first sample earns
    exactly one fresh re-measure — host load is transient, a real
    regression reproduces — before the gate fails.  Pure given its
    inputs, so unit-testable with stub measurements (see
    test/test_serve.ml). *)

type verdict =
  | Pass of { ratio : float; retried : bool }
  | Fail of { ratio : float }  (** the ratio of the failed retry *)
  | Skipped of { ratio : float; cores : int }

(** [ratio_gate ?required_cores ?host_cores ~minimum ~remeasure first]:
    skip when the host has fewer than [required_cores] (default 1,
    i.e. never skip; [host_cores] defaults to
    [Domain.recommended_domain_count ()] and exists for tests); pass
    when [first >= minimum]; otherwise call [remeasure] exactly once
    and pass/fail on the fresh sample. *)
val ratio_gate :
  ?required_cores:int ->
  ?host_cores:int ->
  minimum:float ->
  remeasure:(unit -> float) ->
  float ->
  verdict

(** Print the verdict in the smoke log's uniform format; [false] only
    on [Fail] (a skipped assertion is not a failure). *)
val report : name:string -> minimum:float -> verdict -> bool
