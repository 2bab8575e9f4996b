(** Bounded-retention in-process time-series store: the one sample
    store, which every SLO rule of {!Alerts} — threshold and burn-rate
    alike — judges over.

    A store holds one {!Mitos_util.Timeseries} ring per signal name,
    all sharing the store's retention policy (sample capacity plus
    optional max age — DESIGN §15). On top of the retained samples it
    derives the windowed series the rules need: [window_mean] for
    windowed threshold rules, [rate]/[increase] with counter-reset
    handling, nearest-rank [window_quantile], and bucketed range
    [query] for the [/query] endpoint.

    {b Determinism.} Every derived figure is a pure function of the
    retained [(time, value)] samples; iteration is oldest-first in
    ring order, quantiles are nearest-rank over a total order, and
    bucketing is arithmetic on the sample times — no wall clock, no
    ambient state. Feeding the same stream reproduces every answer
    byte-for-byte (numbers render via {!Registry.fmt_value}).

    {b Monotone time.} Retained times are non-decreasing: a sample
    stamped earlier than the newest already-stored time is clamped
    forward to it. Combined with the ring's keep-newest eviction this
    gives the invariants the QCheck suite pins: times monotone, a
    counter's [rate] non-negative, and the newest sample never
    evicted. *)

type t

val create : ?capacity:int -> ?max_age:float -> unit -> t
(** Per-series retention: at most [capacity] samples (default 8192),
    dropping samples older than [max_age] behind the newest (default
    [infinity]). Raises [Invalid_argument] on non-positive values. *)

val capacity : t -> int
val max_age : t -> float

val add : t -> string -> at:float -> float -> unit
(** Append one sample to the named series (created on first use). *)

val observe : t -> at:float -> (string * float) list -> unit
(** Fold one snapshot of signals at time [at] and count one
    observation. *)

val observations : t -> int
val last_at : t -> float
(** Newest sample time seen, [nan] before the first. *)

val series : t -> string -> Mitos_util.Timeseries.t option
val names : t -> string list
(** First-observation order. *)

val latest : t -> string -> (float * float) option

(** {1 Windowed derivations}

    All windows are trailing: they cover samples with
    [at - window <= time <= at]. *)

val window_fold :
  t -> string -> at:float -> window:float -> init:'a ->
  f:('a -> float -> float -> 'a) -> 'a
(** Fold [f acc time value] over the window's samples, oldest first;
    [init] for an unknown series or an empty window. *)

val window_count : t -> string -> at:float -> window:float -> int
val window_mean : t -> string -> at:float -> window:float -> float
(** 0 when the window is empty. *)

val increase : t -> string -> at:float -> window:float -> float
(** Counter increase over the window: the sum of consecutive-sample
    deltas, where a decrease counts as a counter reset (the new value
    is the delta). Never negative; 0 with fewer than two samples. *)

val rate : t -> string -> at:float -> window:float -> float
(** [increase] per time unit over the span actually covered by the
    window's samples; 0 with fewer than two samples. Never negative. *)

val window_quantile : t -> string -> at:float -> window:float -> float -> float
(** Nearest-rank quantile of the window's values ([q] in [0..1]);
    [nan] when the window is empty. *)

val query : t -> string -> from:float -> step:float -> (float * float) array
(** The [/query] primitive: retained samples with [time >= from]. With
    [step <= 0] the raw samples; otherwise per-bucket means stamped at
    bucket-end times ([from + (k+1)*step]), empty buckets skipped. *)

val query_json : t -> string -> from:float -> step:float -> string
(** [query] as one canonical JSON object
    [{"from":…,"samples":[[t,v],…],"signal":…,"step":…}] (keys
    sorted, numbers via {!Registry.fmt_value}, non-finite values as
    strings). *)
