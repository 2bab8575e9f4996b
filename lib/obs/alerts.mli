(** The SLO engine: every rule the run is judged by, evaluated over
    the retained samples of one {!Tsdb}.

    The paper's premise is steering the under-/over-tainting trade-off
    {e during} execution; this module is the live judgment call.
    Callers feed it named scalar signals at sampling points (the CLI
    wires over-taint ratio vs. the propagate-all bound, decision
    latency, the provenance-eviction rate and tag-space occupancy —
    see [Mitos_experiments.Telemetry.standard_signals]) and it
    re-evaluates every rule per observation. A rule is one of two
    kinds:

    - a {e threshold} rule ([--slo], built by {!threshold}) judges the
      signal's latest sample — or, with the engine's [window], the
      trailing window mean — against a static bound. A breach is
      [Firing]; recovery returns it to [Inactive]. Each ok→breach edge
      enters a keep-newest breach history and, when a tracer is
      linked, emits an [slo_breach] instant. A rule over a signal with
      no samples yet is {e pending}, not breached. Threshold rules
      render in the [/healthz] body and {!healthz_json}.
    - a {e burn-rate} rule ([--burn-slo], built by {!rule}) names an
      {e objective} (the per-sample good/bad test), an {e error
      budget} (the tolerated bad-sample fraction), and a list of
      {e (fast, slow) window pairs} each with a burn-rate threshold
      and severity. The burn rate of a window is the window's
      bad-sample fraction divided by the budget; a pair is active
      when {e both} its windows clear the threshold (the fast window
      makes the alert responsive, the slow window makes it hold
      evidence). Severity [Page] outranks [Ticket]. Burn-rate rules
      render in [/alerts], [/alertz] and the [firing:] lines.

    {b Burn-rate lifecycle.} [Pending] (condition active, waiting out
    [for_]) → [Firing] (held through condition flaps for
    [keep_firing] after the last bad evaluation) → resolved back to
    [Inactive]. Every transition is recorded in a keep-newest incident
    ring (exported as [/alertz] JSONL) and, when a tracer is linked,
    as a Chrome-trace instant ([alert_pending]/[alert_firing]/
    [alert_resolved]/[alert_cancelled]) cross-linked with the run's
    spans.

    {b Determinism.} Evaluation is a pure function of the observed
    [(at, value)] stream — no wall clock, no randomness — so every
    body is byte-identical for the same stream regardless of [--jobs]
    (DESIGN §15). *)

type cmp = Le | Lt | Ge | Gt

type severity = Ticket | Page

val severity_to_string : severity -> string
val severity_of_string : string -> (severity, string) result
val worse : severity -> severity -> severity
(** [Page] beats [Ticket]. *)

type window_pair = {
  fast : float;
  slow : float;
  burn : float;  (** burn-rate threshold both windows must clear *)
  pair_severity : severity;
}

type burn = {
  budget : float;  (** tolerated bad-sample fraction, e.g. 0.01 *)
  windows : window_pair list;
  for_ : float;  (** condition must hold this long before firing *)
  keep_firing : float;  (** quiet spell required before resolving *)
}

type rule = {
  alert_name : string;
  signal : string;
  cmp : cmp;
  objective : float;
      (** threshold rules: the bound the judged value must satisfy;
          burn-rate rules: a sample is good when [value cmp objective] *)
  burn_rate : burn option;  (** [None]: a threshold rule *)
}

val default_windows : window_pair list
(** The classic SRE pairs in observation-clock units: [60/300\@14.4]
    paging and [300/3600\@6] ticketing. *)

val threshold :
  ?name:string -> signal:string -> cmp:cmp -> bound:float -> unit -> rule
(** A threshold rule; [name] defaults to [signal]. Raises
    [Invalid_argument] on a NaN bound. *)

val rule :
  ?name:string -> ?budget:float -> ?windows:window_pair list ->
  ?for_:float -> ?keep_firing:float -> signal:string -> cmp:cmp ->
  objective:float -> unit -> rule
(** A burn-rate rule. [name] defaults to [signal]; [budget] to 0.01;
    [windows] to {!default_windows}; [for_]/[keep_firing] to 0. Raises
    [Invalid_argument] on a NaN number, a non-positive budget or burn
    threshold, an empty or inverted window pair, or negative
    durations. *)

val rule_to_string : rule -> string
(** A threshold rule as [NAME:SIGNAL<=BOUND] (name omitted when equal
    to the signal) — parseable by {!parse_threshold}; a burn-rate rule
    in its canonical [--burn-slo] spelling with every option explicit
    — parseable by {!parse_rule}. Numbers via {!Registry.fmt_value}. *)

val objective_to_string : rule -> string
(** Just [SIGNAL<=OBJECTIVE]. *)

val parse_threshold : string -> (rule, string) result
(** Grammar (one rule per [--slo] flag):
    {[ [NAME:]SIGNAL(<=|<|>=|>)BOUND ]}
    e.g. [over_taint:over_taint_ratio<=0.9] or
    [decision_p99_ticks<=64]. A NaN bound is an error. *)

val parse_rule : string -> (rule, string) result
(** Grammar (one rule per [--burn-slo] flag):
    {[ [NAME:]SIGNAL(<=|<|>=|>)OBJECTIVE[;budget=B]
       [;windows=FAST/SLOW@BURN[@page|ticket],...][;for=D][;keep=K] ]}
    e.g. [p99:decision_p99_ns<=5e6;budget=0.05;windows=30/120@4@page;for=10;keep=30].
    The head is the {!parse_threshold} grammar. Omitted options take
    the {!rule} defaults; a window pair without a severity pages.
    Every rule {!rule} rejects is an [Error], never an exception. *)

(** {1 The engine} *)

type phase =
  | Inactive
  | Pending of { since : float; severity : severity }
  | Firing of { since : float; last_bad : float; severity : severity }
      (** a breached threshold rule is [Firing] at [Page] *)

type transition = To_pending | To_firing | To_resolved | To_cancelled

val transition_to_string : transition -> string
(** [pending]/[firing]/[resolved]/[cancelled]. *)

type incident = {
  seq : int;  (** monotone across the run, survives ring eviction *)
  at : float;
  alert : string;
  transition : transition;
  severity : severity;
  value : float;  (** latest sample of the signal; [nan] if none *)
  burn_fast : float;  (** of the worst active pair at transition time *)
  burn_slow : float;
}

(** A threshold rule transitioning into breach at time [at]. *)
type breach = { breach_rule : rule; value : float; at : float }

type t

val create : ?capacity:int -> ?window:float -> rules:rule list -> unit -> t
(** [capacity] bounds the incident ring and the breach history (default
    1024 each, keep-newest). [window] selects what threshold rules
    judge: [0.0] (the default) the latest sample of the signal; a
    positive window the mean of the samples no older than [window]
    behind it ({!Tsdb.window_mean}). The store has the default
    {!Tsdb} retention. Raises [Invalid_argument] on a non-positive
    capacity or a negative or NaN window. *)

val tsdb : t -> Tsdb.t
(** The store every rule judges over. *)

val phase_of : t -> string -> phase option
(** Current phase of the named rule. *)

val has_burn_rules : t -> bool
(** Whether any rule is a burn-rate rule — the [/alerts] surfaces
    exist only then. *)

val link_tracer : t -> Tracer.t -> unit
(** Subsequent transitions additionally emit tracer instants. *)

val observe : t -> at:float -> (string * float) list -> unit
(** Feed one snapshot of signals into the store, then {!eval}. *)

val eval : t -> at:float -> unit
(** Re-evaluate every rule at time [at] (non-decreasing across calls)
    against the store's retained samples — for callers that feed the
    {!tsdb} directly (e.g. to add derived signals) before judging. *)

(** {1 Verdicts} *)

val healthy : t -> bool
(** No threshold rule breaching and no burn-rate rule firing
    (vacuously true with no rules or no observations). *)

val breaching : t -> (rule * float) list
(** Threshold rules in breach as of the last {!eval}, with the judged
    value; [] when none. *)

val firing : t -> (rule * severity) list
(** Currently firing burn-rate rules, in rule order. *)

val any_firing : t -> bool
val worst_severity : t -> severity option
val severity_code : t -> int
(** 0 none firing / 1 worst is [Ticket] / 2 worst is [Page] — what
    [mitos-cli watch --burn-slo] exits with. *)

val render_firing : t -> string
(** One [firing: NAME severity=SEV] line per firing burn-rate rule —
    part of {!healthz} so watch failures are attributable from the
    probe alone (and parsed back by {!Fleet} for node attribution). *)

(** {1 History and exposition} *)

val breaches : t -> breach list
(** The retained ok→breach edges of threshold rules, oldest first. *)

val incidents : t -> incident list
(** Retained burn-rate transitions, oldest first (the ring keeps the
    newest [capacity]). *)

val incidents_total : t -> int

val healthz : t -> bool * string
(** The [/healthz] verdict ({!healthy}) and body: the verdict line,
    one [breaching: NAME] line per breaching threshold rule, the
    {!render_firing} lines, then one [ok]/[BREACH]/[pending] line per
    threshold rule with its judged value, then the observation and
    breach counters and the breach history. Deterministic. *)

val render_rules : t -> string
(** The threshold rules alone, in the {!healthz} shape: a verdict line
    over those rules only, the [breaching:] lines and the detail. *)

val healthz_json : t -> string
(** The threshold verdict as one JSON object (rules, judged values,
    breach history) — the ["health"] object of [/snapshot.json]. *)

val incidents_to_jsonl : t -> string
(** One canonical JSON object per line, oldest first — the [/alertz]
    body and the CI incident artifact. *)

val to_json : t -> string
(** The [/alerts] body: burn-rate rule states (with burns, severities,
    window configs), the firing list, the incident ring, and the worst
    severity. Keys sorted at every level; byte-deterministic for a
    deterministic stream. *)

val routes : t -> Server.route list
(** With a burn-rate rule: [/alerts] (JSON state + history),
    [/query?signal=&from=&step=] (range query over the store; 400/404
    with the known signal list on a missing/unknown signal) and
    [/alertz] (incident JSONL) — servable by {!Server.start} or
    {!Server.oneshot}. [] otherwise. *)
