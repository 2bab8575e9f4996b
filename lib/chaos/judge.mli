(** Scenario judging: run a chaos fleet and score it against SLOs.

    A {e scenario} bundles a {!Fleetsim.config}, a fault {!Plan} and
    the SLO bar to clear. The judge runs the fleet and renders a
    verdict over:

    - {b recall}: every injected attack the propagate-all oracle could
      detect, the fleet-fed MITOS policy also detected;
    - {b over-taint}: no attack run tainted more bytes than its
      propagate-all oracle;
    - {b p99 latency}: virtual p99 under the bound;
    - {b retries}: zero {e unexpected} retry exhaustions (an
      exhaustion is expected only when the plan had the tenant's path
      inside a kill or partition window);
    - {b alerts}: the fleet-outage burn-rate alert fired {e and}
      resolved when the plan warrants it, stayed silent otherwise, and
      is quiet at the end either way;
    - {b re-sync}: every node alive at the end reports an estimator
      global equal (to 1e-6) to the driver's intended value — restarts
      and partition heals included.

    {!to_json} is canonical and wall-clock-free: two runs of the same
    scenario produce byte-identical reports (the determinism contract
    the test suite enforces); {!render} is the human view and carries
    the wall-clock numbers. *)

type slo = {
  min_recall : float;
  max_over_taint : float;  (** tainted / oracle-tainted ratio bound *)
  max_p99_ns : float;
  expect_alert : bool option;
      (** [None] derives the expectation from the plan
          ({!Plan.expects_outage_alert}) *)
}

val default_slo : slo
(** Recall 1.0, over-taint 1.0, p99 50ms virtual, alert expectation
    derived from the plan. *)

type scenario = {
  scenario_name : string;
  config : Fleetsim.config;
  plan : Plan.t;
  slo : slo;
}

type check = { check_name : string; ok : bool; detail : string }

type verdict = Pass | Violation

type report = {
  scenario : scenario;
  outcome : Fleetsim.outcome;
  checks : check list;
  verdict : verdict;
}

val run : scenario -> (report, string) result

val exit_code : report -> int
(** 0 on [Pass], 1 on [Violation] (setup errors exit 2 at the CLI). *)

val to_json : report -> string
(** The deterministic JSON report (schema ["mitos-chaos-report/1"]),
    rendered with {!Mitos_util.Minijson.render}; trailing newline. *)

val render : report -> string
(** Human summary: scenario, traffic, injections, SLO table, verdict.
    Includes the greppable lines ["detection recall: ..."],
    ["unexpected retries exhausted: N"] and ["verdict: PASS|FAIL"]
    the CI chaos-smoke job asserts on. *)

(** {1 Presets} *)

val presets : (string * string) list
(** [(name, one-line description)] in menu order: [steady],
    [kill-restart], [partition], [frame-fuzz], [ci], [bench]. *)

val preset : string -> scenario option
(** The named preset scenario. *)
