(** The chaos fleet driver.

    Runs a {!Tenantgen} schedule against a {e real} fleet of
    {!Mitos_net.Server} nodes — each fronted by a fault-injecting
    {!Gate} — under a {!Plan}, over a virtual clock. The driver owns
    node lifecycle (kill stops the node's server, {e losing} its
    estimator state; restart creates a fresh one and re-syncs it
    through the ordinary publish path), client failover (decides fail
    over to the next node on transport errors; publishes stay home —
    deferred while the home node is down and replayed on heal), attack
    execution (a full {!Mitos_workload.Attack} engine run whose
    pollution estimate is read from the fleet over the wire, scored
    against a propagate-all oracle), tenant-labelled audit notes, and
    burn-rate alerting fed from per-node pings at every virtual tick.

    Everything in the {!outcome} except [wall_seconds] is a pure
    function of (config, plan): latencies are modelled in virtual
    nanoseconds, fault draws come from seeded streams, and no wall
    clock or unordered iteration touches a reported value — the basis
    of the same-seed byte-identical report contract (DESIGN §16). *)

type transport = Mem | Tcp

type config = {
  nodes : int;
  estimator_slots : int;  (** per node *)
  transport : transport;
  workers : int;  (** serving domains per node, [Tcp] only *)
  gen : Tenantgen.config;
  batch : int;  (** decide requests per frame *)
  candidates : int;
  space : int;
  client_retries : int;
  tick_every : float;  (** virtual seconds between alert ticks *)
}

val default_config : config
(** 3 nodes of 8 slots over [Mem], 2 workers, {!Tenantgen.default_config}
    traffic, batch 8, up to 6 candidates / space 4, 1 client retry,
    1s ticks. *)

type attack_row = {
  attack_at : float;
  attack_tenant : int;
  attack_node : int;  (** node whose global fed the policy *)
  variant : Mitos_workload.Attack.variant;
  detected : bool;
  tainted_bytes : int;
  oracle_detected : bool;
  oracle_tainted_bytes : int;
}

type exhaustion = {
  ex_at : float;
  ex_tenant : int;
  ex_node : int;
  ex_expected : bool;
      (** the plan had the path down (kill or partition window) *)
  ex_class : [ `Refused | `Timeout | `Unknown ];
}

type node_sync = {
  sync_node : int;
  intended : float;  (** sum of the driver's last published values *)
  final : float option;  (** fleet's answer at the end; [None] if dead *)
}

type outcome = {
  events_total : int;
  decide_events : int;
  decisions : int;  (** individual decide requests answered *)
  publishes : int;
  deferred_publishes : int;  (** held back while the home node was down *)
  resync_publishes : int;
  remote_rejects : int;
  wire_rejects : int;
  bad_replies : int;
  failovers : int;
  ping_rejects : int;
  kills : int;
  restarts : int;
  attacks : attack_row list;  (** in schedule order *)
  exhaustions : exhaustion list;
  injected : Gate.counts;  (** summed over the gates *)
  latencies_ns : float array;  (** virtual, sorted ascending *)
  client_retries_total : int;  (** [mitos_net_retries_total] *)
  client_exhausted_total : int;
  syncs : node_sync list;  (** per node, in node order *)
  incidents : Mitos_obs.Alerts.incident list;
  alerts_fired : int;
  alerts_resolved : int;
  alert_quiet_at_end : bool;
  ticks : int;
  down_ticks : int;  (** tick observations with at least one node down *)
  audit : Mitos_obs.Audit.t;  (** tenant-labelled notes *)
  wall_seconds : float;  (** the one nondeterministic field *)
}

val outage_alert_name : string
(** The burn-rate rule the driver feeds ("fleet_outage" on signal
    [chaos_nodes_down]). *)

val quantile_ns : float array -> float -> float
(** Exact nearest-rank quantile of a sorted latency array (0 when
    empty) — shared by the judge and the bench row. *)

val run : config -> plan:Plan.t -> (outcome, string) result
(** [Error] on an invalid config or plan, or when the fleet cannot be
    brought up at all. Faults mid-run are the point and never error.
    All servers, gates, clients and loopback names are torn down on
    every path. *)
