(** Exact copy-count accounting — the control vector [n].

    [n_{t,i}] is the number of taintable objects (bytes / registers)
    whose provenance list currently contains tag [{t,i}]. Every
    insertion and eviction anywhere in the shadow state goes through
    this module, so the counts are exact at all times. The DIFT policy
    reads them to evaluate the paper's marginal cost (Eq. 8):
    [count] supplies the local per-tag value and [weighted_total] /
    [total] supply the global memory-pollution term. *)

type t

val create : unit -> t
val incr : t -> Tag.t -> unit
val decr : t -> Tag.t -> unit
(** Raises [Invalid_argument] if the count would go negative — that
    would indicate an accounting bug elsewhere. *)

val count : t -> Tag.t -> int
(** Current [n_{t,i}]; 0 for never-seen tags. *)

val total : t -> int
(** [sum_t sum_i n_{t,i}] — unweighted pollution numerator. *)

val per_type : t -> Tag_type.t -> int
(** Total copies across all tags of one type. *)

val distinct : t -> int
(** Number of tags with a strictly positive count. *)

val distinct_of_type : t -> Tag_type.t -> int

val weighted_total : t -> float array -> float
(** [weighted_total t o] is [sum_t o_t sum_i n_{t,i}] — the numerator
    of the paper's overtainting cost (Eq. 4), with [o] indexed by
    [Tag_type.to_int]. Summed in [Tag_type.all]'s order; O(#types),
    not O(#tags). *)

val fold : t -> init:'a -> f:('a -> Tag.t -> int -> 'a) -> 'a
(** Folds over tags with positive counts. *)

val counts_array : t -> float array
(** Positive counts as floats, unspecified order — input to the
    fairness metrics. *)

val counts_of_type : t -> Tag_type.t -> float array

val snapshot : t -> (Tag.t * int) list
(** Sorted by tag; positive counts only. *)

val copy : t -> t
val pp : Format.formatter -> t -> unit
