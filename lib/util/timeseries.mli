(** Time-indexed sample accumulation for the figure reproductions and
    the live telemetry stack.

    A series is a bounded sequence of [(time, value)] samples with
    helpers to downsample for display and to summarize tails, matching
    how the paper plots marginal costs and decisions over replay time
    (Fig. 7). Retention is a ring: at most [capacity] samples are kept
    (oldest evicted first), and samples older than the newest sample's
    time minus [max_age] are dropped — the newest sample itself is
    never evicted. The defaults (65536 samples, no age bound) are
    generous enough that figure-reproduction runs see append-only
    behaviour, while long-lived servers stop growing without bound. *)

type t

val create : ?name:string -> ?capacity:int -> ?max_age:float -> unit -> t
(** [capacity] defaults to 65536 samples, [max_age] to [infinity]
    (no age-based eviction). Raises [Invalid_argument] on a
    non-positive capacity or max_age. *)

val name : t -> string
val capacity : t -> int
val max_age : t -> float

val add : t -> float -> float -> unit
(** [add t time value] appends a sample, evicting from the front when
    retention says so; times should be non-decreasing but this is not
    enforced (age eviction assumes the newest sample has the largest
    time). *)

val length : t -> int
(** Retained samples (drops excluded). *)

val dropped : t -> int
(** Samples evicted by capacity or age so far. *)

val times : t -> float array
val values : t -> float array
val last : t -> (float * float) option
val iter : t -> (float -> float -> unit) -> unit
(** Oldest retained sample first. *)

val get : t -> int -> float * float
(** [get t i] is the [i]-th retained sample, oldest first; the caller
    must keep [0 <= i < length t]. *)

val first_at_or_after : t -> float -> int
(** Smallest retained index [i] with [fst (get t i) >= time], or
    [length t] when every retained sample is older — binary search, so
    window scans cost the window, not the retention. *)

val downsample : t -> int -> (float * float) array
(** [downsample t k] returns at most [k] samples spread evenly over the
    retained series (bucket means of the values, bucket-end times). *)

val sparkline : t -> int -> string
(** Unicode sparkline of at most [width] buckets; handy in console
    reports. *)
