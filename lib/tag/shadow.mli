(** Shadow state: per-byte and per-register provenance lists.

    The paper assumes "for each byte in the main memory, register bank
    and Ethernet card memory, a provenance list of tags". We store
    lists sparsely (hash table keyed by byte address) because most
    bytes are untainted most of the time; registers get a dense array,
    one list per register (FAROS-style register granularity).

    All mutations flow through this module so that {!Tag_stats} stays
    exact: the control vector [n] read by the MITOS policy is always
    the true number of list memberships. *)

type t

(** What happens when a tag arrives at a full provenance list.

    [Structural] delegates to the list's own value-blind policy
    (FIFO — the paper's and FAROS's choice — LRU, or rejecting the
    newcomer). [Least_marginal] implements the scheduling the paper's
    §VI defers to future work: evict the co-resident tag whose copy
    count is highest — by Eq. (8) the tag whose marginal undertainting
    benefit per copy is lowest — so scarce (informative) tags survive
    list pressure. *)
type eviction_strategy =
  | Structural of Provenance.eviction
  | Least_marginal

val strategy_to_string : eviction_strategy -> string

(** Storage backend for the per-byte lists — the paper: "a shadow
    memory, whose implementation depends on the DIFT system, e.g.
    hashmap or duplicated memory".

    [Hashed] stores only tainted bytes in a hash table — compact when
    taint is sparse (the common case), with hashing cost per access.
    [Paged] mirrors memory with lazily-allocated 4 KiB page tables —
    constant-time access, proportional-to-touched-pages footprint (the
    "duplicated memory" end of the spectrum). Behaviour is identical;
    only cost differs (see the microbenchmarks). *)
type backend = Hashed | Paged

val backend_to_string : backend -> string

val create :
  ?strategy:eviction_strategy ->
  ?backend:backend ->
  ?shards:int ->
  mem_capacity:int ->
  num_regs:int ->
  m_prov:int ->
  unit ->
  t
(** [mem_capacity] is the paper's [R] (taintable bytes), [m_prov] the
    provenance list bound [M_prov]. Defaults: [Structural Fifo],
    [Hashed]. [shards] (default {!default_shards}) splits the [Hashed]
    backend into that many independent sub-tables, keyed by a
    deterministic multiplicative hash of the byte address — semantics
    are identical at any shard count (per-address state is
    independent); only which hash table an address lands in changes.
    The [Paged] backend ignores it (pages already shard naturally). *)

val backend : t -> backend

val shards : t -> int
(** Sub-table count of the [Hashed] backend; 1 for [Paged]. *)

val shard_occupancy : t -> int array
(** Tainted-byte count per shard, in shard index order; sums to
    {!tainted_bytes}. For [Paged], a single-element array. *)

val set_default_shards : int -> unit
(** Process-wide default for {!create}'s [shards] (initially 1) — the
    hook the [--shards] CLI flag uses so every engine built downstream
    shards its shadow without plumbing a parameter through each
    experiment. Set it once at startup, before building engines. *)

val default_shards : unit -> int

(** A provenance-list eviction: [victim] was removed from the list at
    [at] to make room for [incoming] — taint silently lost behind the
    policy's back, which is exactly what audit trails need to see. *)
type evict_event = {
  at : [ `Mem of int | `Reg of int ];
  victim : Tag.t;
  incoming : Tag.t;
}

val on_evict : t -> (evict_event -> unit) option -> unit
(** Install (or clear, with [None]) the eviction observer. At most one
    observer; [None] (the default) costs nothing on the mutation
    path. Fires for both structural ([Provenance.Added_evicting]) and
    least-marginal (explicit removal) evictions. *)

val stats : t -> Tag_stats.t
val mem_capacity : t -> int
val m_prov : t -> int
val num_regs : t -> int

val total_tag_space : t -> int
(** The paper's [N_R = R * M_prov] (registers included). *)

val pollution : t -> o:float array -> float
(** [sum_t o_t sum_i n_{t,i} / N_R] — the global memory-pollution
    fraction entering the overtainting cost; [o] is indexed by
    [Tag_type.to_int]. *)

(** {1 Single-tag operations} *)

val add_tag_addr : t -> int -> Tag.t -> Provenance.add_result
val add_tag_reg : t -> int -> Tag.t -> Provenance.add_result
val remove_tag_addr : t -> int -> Tag.t -> bool
val clear_addr : t -> int -> unit
val clear_reg : t -> int -> unit

(** {1 Bulk operations used by flow propagation} *)

val tags_of_addr : t -> int -> Tag.t list
(** Oldest first; [] when untainted. *)

val tags_of_reg : t -> int -> Tag.t list

val set_addr_tags : t -> int -> Tag.t list -> unit
(** Replace semantics (direct copy): destination's list becomes the
    given tags, truncated to the oldest [M_prov] of them. *)

val set_reg_tags : t -> int -> Tag.t list -> unit

val union_into_addr : t -> int -> Tag.t list -> unit
(** Union semantics (computation): add each tag, honouring capacity
    and eviction. *)

val union_into_reg : t -> int -> Tag.t list -> unit

val space_left_addr : t -> int -> int
val space_left_reg : t -> int -> int

(** {1 Queries} *)

val is_tainted_addr : t -> int -> bool
val is_tainted_reg : t -> int -> bool
val addr_has_type : t -> int -> Tag_type.t -> bool
val tainted_bytes : t -> int
(** Number of memory bytes with a non-empty list. *)

val tainted_regs : t -> int

val bytes_with_both : t -> Tag_type.t -> Tag_type.t -> int
(** Detection query: bytes whose list holds tags of both types — the
    FAROS in-memory-attack signature is
    [bytes_with_both shadow Network Export_table]. *)

val bytes_with_type : t -> Tag_type.t -> int

val footprint_bytes : t -> int
(** Estimated shadow-memory footprint in bytes: per-tracked-byte
    overhead plus per-list-entry cost. This is the paper's "space"
    metric for Table II. *)

val iter_tainted : t -> (int -> Tag.t list -> unit) -> unit
(** Iterate over tainted memory bytes (unspecified order). *)

val reset : t -> unit
(** Drop all taint; counts return to zero. *)

(** {1 Checkpointing}

    Serialize the full shadow state — geometry, every byte's and
    register's provenance list (order preserved) — so a long tracking
    session can be suspended and resumed, or a state of interest
    archived next to its trace. Counts are rebuilt on restore and are
    exact by construction. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Mitos_util.Codec.Malformed] on corrupt input. *)
