(** The standard telemetry surface: glue between a running
    engine/obs/audit/SLO stack and the {!Mitos_obs.Server} routes
    every long-running invocation exposes.

    This module owns three things:

    - the {e route set} — [/metrics], [/healthz], [/snapshot.json],
      [/tracez], [/auditz] — built from whatever parts of the stack
      the caller has ([None] parts degrade to honest placeholders);
    - the {e standard signals} fed to the one SLO engine
      ({!Mitos_obs.Alerts}) at every
      {!Mitos_dift.Metrics.attach_sampler} observation (over-taint
      ratio vs. the propagate-all bound, decision-latency p50/p99,
      eviction rate, tag-space occupancy);
    - the {e default threshold rules} over those signals.

    Route payload thunks obey the {!Mitos_obs.Server} hot-path
    contract: they only read (registry exposition under its creation
    mutex, ring snapshots best-effort, engine progress via
    {!Mitos_dift.Engine.progress} — plain field reads). The same
    routes passed to {!Mitos_obs.Server.oneshot} after the run are the
    deterministic offline twin. *)

type source = {
  obs : Mitos_obs.Obs.t;
  slo : Mitos_obs.Alerts.t option;  (** threshold and burn-rate rules *)
  audit : Mitos_obs.Audit.t option;
  progress : (unit -> Mitos_dift.Engine.progress) option;
}

val source :
  ?slo:Mitos_obs.Alerts.t ->
  ?audit:Mitos_obs.Audit.t ->
  ?progress:(unit -> Mitos_dift.Engine.progress) ->
  Mitos_obs.Obs.t ->
  source

val health_verdict : source -> bool * string
(** The [/healthz] verdict: {!Mitos_obs.Alerts.healthz} of the SLO
    engine — healthy iff no threshold rule is breaching and no
    burn-rate rule is firing — also what [mitos-cli serve-decisions]
    answers health probes with. Without an engine, a plain ok
    liveness line. *)

val progress_json : Mitos_dift.Engine.progress -> string
(** One JSON object, canonical field order and number formatting. *)

val snapshot_json : source -> string
(** The [/snapshot.json] body: [{"progress":…,"audit":…,"health":…,
    "alerts":…,"metrics":…}] with [null] for absent parts. ["health"]
    is the engine's {!Mitos_obs.Alerts.healthz_json}; ["alerts"] its
    {!Mitos_obs.Alerts.to_json}, present only with a burn-rate
    rule. *)

val routes : ?last:int -> ?pid:int -> source -> Mitos_obs.Server.route list
(** The standard five routes, in fixed order, with their oneshot file
    names ([metrics.prom], [healthz.txt], [snapshot.json],
    [tracez.jsonl], [auditz.jsonl]). [/tracez] and [/auditz] serve the
    last [last] (default 256) events/records as JSONL; [pid] stamps
    the [/tracez] export's pid field (pass [Unix.getpid ()] on a live
    server so client and server traces concatenate into one Chrome
    timeline), and [/tracez?trace_id=<32-hex>] keeps only the spans of
    one distributed trace — filtered before the tail, so a stitched
    trace survives ring pressure. Without an SLO engine [/healthz] is
    a plain 200 liveness probe; with a burn-rate rule in the engine
    the [/alerts], [/query] and [/alertz] routes are appended (see
    {!health_verdict}). *)

(** {1 Standard signals and rules} *)

val standard_signals :
  ?over_taint_bound:float ->
  obs:Mitos_obs.Obs.t ->
  Mitos_dift.Engine.t ->
  Mitos_dift.Metrics.sample ->
  (string * float) list
(** The signal snapshot for one sampler observation, in fixed order:
    [over_taint_ratio] (sampled tainted bytes over [over_taint_bound]
    — the propagate-all final pollution; omitted unless the bound is
    positive), [decision_p50_ticks]/[decision_p99_ticks] (from the
    engine record-latency histogram in [obs]'s registry),
    [eviction_rate] (evictions per processed record),
    [tag_space_occupancy] (provenance entries over the paper's
    [N_R = R * M_prov]), plus the raw [tainted_bytes] and
    [distinct_tags]. Call from the sampler's [observe] callback — it
    reads shadow state and must stay on the run's domain. *)

val default_rules : Mitos_obs.Alerts.rule list
(** A conservative default threshold rule set over the standard signals:
    [over_taint_ratio<=1] (a decisioning policy must not exceed the
    propagate-all bound), [eviction_rate<=0.5] and
    [tag_space_occupancy<=0.9] (taint churn sanity). Extend or
    override with [--slo] rules. *)

(** {1 The pilot run}

    The deterministic run behind [mitos-cli serve] and every
    [--listen] flag: record a workload once, sweep the oracle policy
    panel (faros / propagate-all / mitos) over the trace on the pool
    to publish per-policy [mitos_sweep_*] gauges and obtain the
    propagate-all over-taint bound, then set up an audited and
    instrumented MITOS replay of the same trace on the calling domain
    whose sampler feeds {!standard_signals} into an SLO engine.

    Everything that writes to the obs context happens on the calling
    domain under the supplied clock (logical by default), so a
    {!Mitos_obs.Server.oneshot} of {!routes} after {!pilot.replay} is
    byte-identical across [--jobs] settings — the sweep workers never
    touch the obs context or the audit recorder. *)

type pilot = {
  src : source;  (** SLO engine, audit and progress all populated *)
  engine : Mitos_dift.Engine.t;  (** the MITOS replay engine *)
  replay : unit -> unit;
      (** Drive the audited replay (call once). Its policy's
          decisions reach the obs context and the recorder only
          through this engine's decision context. *)
  over_taint_bound : float;  (** propagate-all final tainted bytes *)
}

val pilot :
  ?params:Mitos.Params.t ->
  ?rules:Mitos_obs.Alerts.rule list ->
  ?window:float ->
  ?clock:Mitos_obs.Obs_clock.t ->
  ?sample_every:int ->
  ?audit_capacity:int ->
  ?pool:Mitos_parallel.Pool.t ->
  build:(unit -> Mitos_workload.Workload.built) ->
  unit ->
  pilot
(** [build] must return a fresh workload per call (it is called once
    per sweep policy, possibly concurrently, plus once for the MITOS
    replay — deterministic workload builders are). [rules] defaults
    to {!default_rules}; [sample_every] (default 256) paces both the
    engine sampler and the SLO observations. [window] is the
    engine's threshold window ({!Mitos_obs.Alerts.create}). *)
