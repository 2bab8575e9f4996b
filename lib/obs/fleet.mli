(** Fleet telemetry federation: scrape a configured set of nodes,
    merge their registry snapshots exactly, and roll their health up
    into one worst-of-fleet verdict, judged with one fleet-level SLO
    engine ({!Alerts}) over the fleet signals.

    Transport-agnostic by layering: a node is a name plus a [fetch]
    thunk returning that node's {!report} (self-reported id, health
    verdict, and one {!Registry.Snapshot}). The wire-protocol fetcher
    lives in [Mitos_net] (a [Query_telemetry] roundtrip); tests drive
    in-process thunks directly.

    {b Merge semantics} (DESIGN §14): counters sum; histograms with
    identical bucket layouts merge bucket-wise, so fleet p50/p95/p99
    are computed from merged buckets — never by averaging per-node
    percentiles; gauges (and any kind/layout clash) keep per-node
    rows labelled [node="<id>"].

    {b Determinism.} Scraping is caller-driven: {!scrape} takes an
    explicit time, nodes are visited in configured order, and every
    rendered surface sorts its keys — over [mem://] transports the
    federated snapshot and [/fleet.json] are byte-deterministic.

    {b Staleness.} A node is {e fresh} while its last successful
    scrape is at most [stale_after] behind the latest scrape time;
    stale and never-seen nodes drop out of the merge and force the
    fleet verdict to breach. Reachability is stricter than freshness:
    a node whose latest scrape {e attempt} failed is down immediately
    (its last snapshot keeps merging until it goes stale). *)

type report = {
  node : string;  (** the node's self-reported id *)
  healthy : bool;  (** the node's own SLO verdict *)
  health : string;  (** its rendered /healthz body *)
  snapshot : Registry.Snapshot.t;
}

type fetch = unit -> (report, string) result

type t

val default_rules : Alerts.rule list
(** The threshold rule [fleet_unreachable<=0]. *)

val create : ?stale_after:float -> ?slo:Alerts.t -> (string * fetch) list -> t
(** [stale_after] defaults to 60 (same unit as the [at] values given
    to {!scrape}). [slo] is the fleet-level SLO engine fed the fleet
    signals by {!scrape}; give it {!default_rules} plus operator
    threshold and burn-rate rules over those signals. A breaching
    threshold rule or a firing burn-rate rule forces the fleet verdict
    to breach, and the engine's routes are appended to {!routes}.
    Raises [Invalid_argument] on an empty node list or a non-positive
    [stale_after]. *)

val parse_firing : string -> (string * Alerts.severity) list
(** The [firing: NAME severity=SEV] lines of a rendered /healthz body
    (what [Mitos_experiments.Telemetry.health_verdict] splices in),
    in body order — how a node's firing alerts travel to the fleet
    without a wire-protocol change. Unparseable lines are skipped. *)

val scrape : t -> at:float -> unit
(** One scrape round: fetch every node in configured order, update
    last-seen/failure state, recompute the merged snapshot from fresh
    reports and feed the fleet signals ([fleet_nodes], [fleet_up],
    [fleet_unreachable], [fleet_requests_total], [fleet_node_skew],
    [fleet_nodes_firing], plus [fleet_decision_p99_ns] and
    [fleet_over_taint_ratio] when the underlying series exist) into
    the fleet SLO engine. [at] must be
    non-decreasing across calls. *)

val merged : t -> Registry.Snapshot.t
(** The fleet rollup as of the last {!scrape}: fresh per-node
    snapshots merged with {!Registry.Snapshot.merge}. *)

val federated : t -> Registry.Snapshot.t
(** The node-labelled union: every fresh node's snapshot relabelled
    with [node="<id>"], plus [mitos_fleet_node_up{node}],
    [mitos_fleet_scrapes_total] and one
    [mitos_fleet_alert_firing{alert,node}] gauge per firing alert a
    fresh node reports (value = severity rank, 1 ticket / 2 page) —
    what the federated [/metrics] renders. *)

val signals : t -> (string * float) list
(** The fleet signals computed by the last {!scrape}. *)

val scrapes : t -> int
val stale_after : t -> float
val slo : t -> Alerts.t option

(** One node as the fleet sees it: [nan] for figures the node's
    snapshot does not carry. *)
type node_view = {
  name : string;  (** configured name (e.g. the endpoint) *)
  node_id : string;  (** self-reported id; [name] before first contact *)
  up : bool;  (** the latest scrape attempt on this node succeeded *)
  node_healthy : bool;
  last_seen : float;
  stale : bool;  (** seen at least once, but not within [stale_after] *)
  failures : int;
  last_error : string option;
  node_requests_total : int;
  request_rate : float;  (** requests/sec between the last two scrapes *)
  decide_p99_ns : float;
  occupancy : float;  (** summed shadow-shard occupancy gauges *)
  node_firing : (string * Alerts.severity) list;
      (** alerts the node reports firing ({!parse_firing} of its
          health body) *)
}

val nodes : t -> node_view list
(** In configured order. *)

val healthy : t -> bool
(** Worst-of-fleet: false when any node is unreachable/stale or in
    breach of its own SLOs, a fleet-level threshold rule is breached,
    or a fleet-level burn-rate rule is firing. *)

val status_code : t -> int
(** 200/503 from {!healthy} — the fleet [/healthz] status. *)

val render_health : t -> string
(** The fleet [/healthz] body: a status line naming the first
    offending node (with [alert NAME] attribution when the node's
    breach is a firing burn-rate alert), one line per node — each
    followed by indented [firing: NAME severity=SEV node=ID] lines —
    then the fleet threshold rules ({!Alerts.render_rules}) and, with a
    burn-rate rule, the fleet engine's firing set. Deterministic. *)

val fleet_json : t -> string
(** [/fleet.json]: fleet verdict, merged snapshot, per-node rollup
    (in configured order, each with its full snapshot) and the last
    fleet signals. Keys sorted at every level. *)

val routes : t -> Server.route list
(** [/metrics] (federated, node-labelled), [/fleet.json], [/healthz]
    (worst-of-fleet), plus the fleet engine's
    [/alerts]/[/query]/[/alertz] when it has a burn-rate rule — servable by
    {!Server.start} or {!Server.oneshot}. *)
