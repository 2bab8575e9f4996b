(** Run-health watchdog: declarative SLO rules evaluated over the
    signals the run periodically reports.

    The paper's whole premise is steering the under-/over-tainting
    trade-off {e during} execution; this module is the live judgment
    call. Callers feed it named scalar signals at sampling points
    (the CLI wires over-taint ratio vs. the propagate-all bound,
    decision latency p50/p99 from the registry histograms, the
    provenance-eviction rate and tag-space occupancy — see
    [Mitos_experiments.Telemetry.standard_signals]); each signal is
    folded into a {!Mitos_util.Timeseries}, every rule is re-evaluated
    per observation, and breach transitions are recorded (and, when a
    tracer is linked, emitted as Chrome-trace instant events
    cross-linked like audit records).

    Rule grammar (one rule per [--slo] flag):
    {[ [NAME:]SIGNAL(<=|<|>=|>)BOUND ]}
    e.g. [over_taint:over_taint_ratio<=0.9] or
    [decision_p99_ticks<=64]. A rule with no [NAME:] prefix is named
    after its signal. A rule over a signal that has received no
    samples yet is {e pending}, not breached.

    Determinism: evaluation depends only on the observed
    [(at, value)] stream — no wall clock — so a run driven by
    deterministic sample times renders a byte-identical report. *)

type cmp = Le | Lt | Ge | Gt

type rule = {
  rule_name : string;
  signal : string;
  cmp : cmp;
  bound : float;
}

val rule : ?name:string -> signal:string -> cmp:cmp -> bound:float -> unit -> rule
(** [name] defaults to [signal]. *)

val cmp_to_string : cmp -> string
val rule_to_string : rule -> string
(** [NAME:SIGNAL<=BOUND] (name omitted when equal to the signal),
    bound via {!Registry.fmt_value} — parseable by {!parse_rule}. *)

val parse_rule : string -> (rule, string) result

val holds : cmp -> float -> float -> bool
(** [holds cmp value bound] — does [value cmp bound] hold? Shared with
    the burn-rate alert engine ({!Alerts}), whose objectives reuse the
    rule comparison grammar. *)

(** A rule transitioning into violation at observation time [at]. *)
type breach = { breach_rule : rule; value : float; at : float }

type t

val create : ?window:float -> rules:rule list -> unit -> t
(** [window] selects what a rule judges: [0.0] (the default) judges
    the latest sample of the signal; a positive window judges the mean
    of samples with [time >= at - window] (via
    {!Mitos_util.Timeseries.window_mean}). Raises [Invalid_argument]
    on a negative window. Each signal keeps the bounded
    {!Mitos_util.Timeseries} default retention. *)

val rules : t -> rule list

val link_tracer : t -> Tracer.t -> unit
(** Subsequent breach transitions additionally emit a tracer instant
    named ["slo_breach"] carrying the rule and observed value. *)

val observe : t -> at:float -> (string * float) list -> unit
(** Fold one snapshot of signals (time [at], non-decreasing across
    calls) and re-evaluate every rule. Unknown signal names create new
    series; rules over signals absent from this snapshot judge their
    existing series. *)

val signals : t -> (string * Mitos_util.Timeseries.t) list
(** The folded series, in first-observation order. *)

val current_breaches : t -> (rule * float) list
(** Rules violated as of the last {!observe}, with the value that
    violated them; [] when healthy. *)

val breaches : t -> breach list
(** The newest 1024 ok→breach transitions, oldest first — the same
    bound as {!Alerts}' incident ring, so a flapping rule cannot grow
    {!render} or {!to_json} without limit. [breaches_total] in
    {!render} still counts every transition. *)

val healthy : t -> bool
(** No rule currently in breach (vacuously true with no rules or no
    observations). *)

val status_code : t -> int
(** HTTP status for [/healthz]: 200 when {!healthy}, 503 otherwise. *)

val render : t -> string
(** The [/healthz] body: the verdict line, one [breaching: NAME] line
    per currently breaching rule (so a failure is attributable from
    the probe alone), then one [ok]/[BREACH]/[pending] line per rule
    with its judged value, then breach-history and sample counters.
    Deterministic (fixed order, canonical numbers). *)

val breaching_lines : t -> string
(** Just the [breaching: NAME] lines (empty when healthy) — for
    callers composing a verdict body that interleaves other judgment
    layers (see [Mitos_experiments.Telemetry]). *)

val render_detail : t -> string
(** Everything {!render} prints after the verdict and breaching
    lines. [render t = verdict ^ breaching_lines t ^ render_detail t]. *)

val to_json : t -> string
(** The same verdict as one JSON object (rules, current values,
    breach history) — embedded in [/snapshot.json]. *)
