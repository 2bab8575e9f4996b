(** A multi-node MITOS deployment.

    Every node runs its own workload under its own DIFT engine with a
    MITOS policy; the undertainting term uses the node's exact local
    counts, while the overtainting term reads the shared (stale)
    global pollution scalar. Nodes publish their local pollution every
    [sync_period] engine steps — [sync_period = 1] approximates an
    idealized instantaneous global view; large periods model
    gossip/aggregation delay in a real distributed system.

    Execution interleaves nodes round-robin, one step each per round,
    so cross-node interleaving is deterministic.

    Where the scalar lives is the only thing that varies between
    deployments: {!create} keeps it in an in-process {!Estimator}, and
    [Mitos_net.Netcluster] keeps it in a decision server reached over
    the wire. Both run the same {!run}. *)

(** The pollution scalar's storage, keyed by estimator slot. *)
type estimator = {
  publish : slot:int -> float -> unit;
      (** overwrite the slot's published contribution *)
  contribution : slot:int -> float;
      (** the slot's latest published contribution *)
  global : slot:int -> float;
      (** the global scalar as the node at [slot] reads it *)
}

type t

val create :
  ?config:Mitos_dift.Engine.config ->
  ?watch:Mitos_tag.Tag_type.t * Mitos_tag.Tag_type.t ->
  ?shards:int ->
  params:Mitos.Params.t ->
  sync_period:int ->
  Mitos_workload.Workload.built list ->
  t
(** [watch] arms every node's engine with a confluence alarm (see
    [Engine.watch_confluence]) — cluster-wide intrusion detection.
    [shards] (default 1) shards the estimator; the report stays
    byte-identical only across runs with the same shard count (the
    global fold groups per shard — see {!Estimator}). *)

val create_heterogeneous :
  ?config:Mitos_dift.Engine.config ->
  ?watch:Mitos_tag.Tag_type.t * Mitos_tag.Tag_type.t ->
  ?topology:(int * int) list ->
  ?shards:int ->
  sync_period:int ->
  (Mitos_workload.Workload.built * Mitos.Params.t) list ->
  t
(** Per-node parameterizations — the paper's "different application
    scenarios and security needs" across subsystems: each node decides
    under its own α/τ/weights. [topology] additionally restricts
    pollution visibility to a neighbourhood: with edges given
    (undirected, node indices), each node's overtainting term reads
    its own exact pollution plus the published contributions of its
    direct neighbours only — a gossip-style partial view instead of
    the global scalar (the default, a complete graph). The pollution
    each node publishes is weighted by its own [o_t]. Raises
    [Invalid_argument] on out-of-range endpoints. *)

val create_over :
  estimator ->
  first_slot:int ->
  config:Mitos_dift.Engine.config ->
  params:Mitos.Params.t ->
  sync_period:int ->
  Mitos_workload.Workload.built list ->
  t
(** A cluster whose scalar lives behind [estimator]: node [i]
    publishes to slot [first_slot + i] and its report row is labelled
    with that slot. Raises [Invalid_argument] on an empty node list or
    [sync_period < 1]. *)

val num_nodes : t -> int

val global : t -> float
(** The global scalar as the first node reads it. *)

val run : ?max_rounds:int -> t -> int
(** Round-robin until every node halts (or [max_rounds]); returns the
    number of rounds executed. *)

val summaries : t -> Mitos_dift.Metrics.summary list

val total_propagated : t -> int
val total_blocked : t -> int
val syncs_performed : t -> int

val local_pollution : t -> node:int -> float
(** The node's exact current weighted pollution (what it would publish
    right now). *)

val alerts : t -> (int * Mitos_dift.Engine.alert) list
(** (node, alert) pairs across the cluster, ordered by alert step —
    which machine tripped the wire, and when. Empty without [watch]. *)

val first_alert : t -> (int * Mitos_dift.Engine.alert) option

val staleness : t -> float
(** Instantaneous: mean absolute difference between each node's exact
    contribution and its published one, normalized by the exact global
    pollution — 0 when perfectly synchronized. (After a completed
    {!run} this is 0 because nodes publish on halt.) *)

val mean_staleness : t -> float
(** Mean of {!staleness} sampled periodically {e during} the run — the
    quantity that actually degrades with the sync period. *)

val report : rounds:int -> t -> string
(** The canonical text report of a finished run of [rounds] rounds:
    totals, publishes, mean staleness, the global scalar and one row
    per node (floats through {!Mitos_obs.Registry.fmt_value}). No wall
    times and no transport names, so an in-process and a wire-backed
    run of the same cluster are byte-comparable. *)
