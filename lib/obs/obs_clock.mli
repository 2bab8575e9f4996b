(** Time sources for the observability layer.

    Every timestamp the tracer and the timing histograms record comes
    from one of these clocks, expressed as an integer number of
    *ticks*:

    - the {!real} clock reports microseconds elapsed since the clock
      was created, read from {!Mitos_util.Clock.now_ns} — use it
      when the absolute numbers matter (live serving, profiling);
    - the {!logical} clock reports a counter that advances by one per
      query — durations become "number of clock reads", which is
      fully deterministic, so traces and metrics rendered from a
      seeded run are byte-identical across runs (the property the
      determinism tests and the CLI default rely on);
    - {!of_fun} adapts any external tick source (e.g. an engine's
      shadow-op counter), letting durations be measured in units of
      deterministic work. *)

type t

val real : unit -> t
(** Microseconds since creation. *)

val logical : ?start:int -> unit -> t
(** Deterministic counter: the first query returns [start] (default 0)
    and every query advances it by one. *)

val of_fun : (unit -> int) -> t
(** Wrap an arbitrary tick source. The source should be
    non-decreasing. *)

val now : t -> int
(** Current tick count. *)
