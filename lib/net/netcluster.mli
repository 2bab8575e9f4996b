(** A {!Mitos_distrib.Cluster} whose global pollution scalar lives in
    a {!Server}'s estimator, reached through one {!Client} per node:
    nodes [Publish] on their sync cadence and the policies' pollution
    source issues [Read_global] per decision.

    This module only does the wire work — it connects the clients and
    hands them to {!Mitos_distrib.Cluster.create_over}; running and
    reporting go through [Cluster] itself.

    {b Determinism.} There is one run loop, so over a [Memory]
    (loopback) endpoint — which invokes the server handler
    synchronously on the calling domain, with floats crossing the wire
    as 64-bit IEEE images — {!Mitos_distrib.Cluster.report} is
    byte-identical to an in-process cluster's on the same seeds, sync
    period and estimator shard count, at any [--jobs]. Over TCP the
    semantics are the same but timing-dependent staleness makes no
    byte promise.

    Wire failures mid-run raise [Failure] — a lost coordinator has no
    deterministic recovery. *)

type t

val create :
  ?config:Mitos_dift.Engine.config ->
  ?client_timeout:float ->
  ?index_base:int ->
  params:Mitos.Params.t ->
  sync_period:int ->
  endpoint:Transport.endpoint ->
  Mitos_workload.Workload.built list ->
  t
(** Connect one client per node to the decision server at [endpoint]
    (whose estimator must have a slot for every node — publishes fail
    otherwise). [index_base] is the first node's estimator slot — a
    multi-process deployment gives each [mitos-cli node] process its
    own slot range; default 0. Raises [Failure] if a connection cannot
    be established, [Invalid_argument] on an empty node list,
    [sync_period < 1] or a negative [index_base]. *)

val cluster : t -> Mitos_distrib.Cluster.t

val close : t -> unit
(** Close the node clients. *)
