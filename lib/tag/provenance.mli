(** Bounded provenance lists.

    Each taintable object (memory byte or register) carries a
    provenance list: the tags accumulated during its life, bounded by
    [M_prov] (the paper's provenance list size). A list never holds two
    copies of the same tag — that is constraint Eq. (7) of the paper,
    enforced structurally.

    When a tag is added to a full list, the {!eviction} policy decides
    what happens. The paper (following FAROS) uses FIFO; LRU and
    reject-newcomer are provided for the ablation suggested in the
    paper's §VI ("Scheduling management in the lists"). *)

type eviction =
  | Fifo  (** drop the oldest entry (the paper's/FAROS's behaviour) *)
  | Lru  (** drop the least-recently-confirmed entry; membership hits
             refresh recency *)
  | Reject  (** drop the incoming tag instead *)

val eviction_to_string : eviction -> string

type t

val create : ?eviction:eviction -> int -> t
(** [create cap] makes an empty list with capacity [cap] >= 1. Default
    eviction is [Fifo]. *)

val capacity : t -> int
val eviction : t -> eviction
val cardinal : t -> int
val space_left : t -> int
val is_empty : t -> bool
val is_full : t -> bool
val mem : t -> Tag.t -> bool

(** Result of {!add}. *)
type add_result =
  | Added  (** inserted, room was available *)
  | Added_evicting of Tag.t  (** inserted, displacing the returned tag *)
  | Already_present  (** no-op: Eq. (7) — at most one copy per tag *)
  | Rejected  (** full and the eviction policy is [Reject] *)

val add : t -> Tag.t -> add_result
val remove : t -> Tag.t -> bool
(** [true] if the tag was present. *)

val touch : t -> Tag.t -> unit
(** Refresh recency under [Lru]; no-op otherwise. *)

val assign : t -> Tag.t list -> bool
(** [assign t tags] makes [tags] the whole list, in order, when [tags]
    is duplicate-free and within capacity, and returns [true].
    Otherwise it leaves [t] as it is and returns [false]. No eviction
    happens either way. *)

val clear : t -> Tag.t list
(** Empties the list, returning the tags that were present. *)

val to_list : t -> Tag.t list
(** Oldest first. *)

val iter : t -> (Tag.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Tag.t -> 'a) -> 'a
val exists : t -> (Tag.t -> bool) -> bool
val copy : t -> t
val pp : Format.formatter -> t -> unit
