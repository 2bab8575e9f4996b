(** Runtime telemetry: OCaml GC counters and {!Contended} lock stats
    sampled into registry gauges ([mitos_gc_*], [mitos_lock_*]).

    Sampling is pull-based: nothing lands in the registry until
    {!sample} (or a {!start}ed background sampler) runs. Keep these
    gauges out of deterministic exposition paths — the oneshot
    telemetry diff in CI compares /metrics byte-for-byte across
    --jobs, and GC word counts are anything but deterministic. Only
    long-running serving paths and the profiler should sample. *)

val sample_gc : Registry.t -> unit
(** Gauges from [Gc.quick_stat], labelled with the calling domain. The
    values cover every domain of the process, whichever domain samples.
    On OCaml 5 the word counts ([mitos_gc_minor_words],
    [_promoted_words], [_major_words]) advance at each minor
    collection, so allocation since the last one shows at the next. *)

val export_locks : Registry.t -> unit
(** Gauges from [Contended.aggregate], labelled [lock="<name>"]. *)

val sample : Registry.t -> unit
(** {!sample_gc} plus {!export_locks}. *)

val signals : unit -> (string * float) list
(** SLO-rule signals ["lock_<name>_contention"]: contended share of
    acquisitions per lock, in [0, 1]. *)

type sampler

val start : ?period:float -> Registry.t -> sampler
(** Background sampling domain; default period 0.1 s. *)

val stop : sampler -> unit
(** Stops and joins the sampler. *)
