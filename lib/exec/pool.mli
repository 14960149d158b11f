(** Deterministic fork-join scheduler on OCaml 5 domains.

    The pool runs the flow's one coarse independent unit — a
    (variant, application) pair evaluation, or a serve request batch —
    across a fixed number of domains while keeping the *observable
    result identical to a serial run*:

    - [map f xs] always delivers results in submission order, whatever
      order tasks finish in;
    - a task's exception is re-raised for the lowest submission index
      that failed, mirroring which element a serial [List.map] would
      have raised on;
    - workers inherit the submitting domain's telemetry span context,
      so span trees aggregate under the same (parent, name) keys as a
      serial run.

    Tasks must be independent (no task may observe another's side
    effects) — that is the caller's contract, checked by the CI
    determinism guard ([apex report-diff] of --jobs 1 vs --jobs 4
    runs).  A pool task never fans out: a [map] called from inside a
    task — on a spawned domain, or on the caller at [--jobs 1] — runs
    serially inline instead of spawning further domains. *)

val default_jobs : unit -> int
(** [APEX_JOBS] when set and positive, otherwise
    [Domain.recommended_domain_count ()]. *)

val jobs : unit -> int
(** Current worker count: the last [set_jobs], or [default_jobs ()]. *)

val set_jobs : int -> unit
(** Fix the worker count (the CLI's [--jobs N]).  Clamped to [1, 64].
    [set_jobs 1] forces fully serial execution. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with submission-order results. *)

