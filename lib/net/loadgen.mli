(** Seeded synthetic load for the decision service.

    Drives a {!Client} with a deterministic request mix — mostly
    batched decide requests over random candidate tag-sets, with a
    periodic pollution publish mixed in (the cluster traffic shape) —
    and measures client-observed round-trip latency into a histogram.
    The {e request stream} is a pure function of the seed; the
    latencies of course are not.

    The report lands two ways: a {!render}ed human summary and the
    supplied registry ([mitos_net_client_latency_ns] histogram, whose
    p50/p95/p99 appear in the Prometheus exposition). *)

(** Open-loop arrival shaping: request arrival times follow a seeded
    schedule {e independent of service completions} — Pareto
    (heavy-tail) inter-arrivals whose mean tracks a sinusoidal diurnal
    ramp. A service that falls behind the schedule is issued to
    immediately (arrivals are never skipped) and the accumulated lag
    is reported — the open-loop tell of saturation that a closed loop
    hides behind a lower throughput number. *)
type open_loop = {
  rate_rps : float;  (** mean offered request frames per second *)
  pareto_alpha : float;
      (** inter-arrival tail shape (must be > 1; smaller = burstier) *)
  diurnal_amp : float;
      (** rate swings between [(1 ± amp) * rate_rps] over a period *)
  diurnal_period_s : float;  (** seconds per diurnal cycle *)
}

val default_open_loop : open_loop
(** 500 frames/s, alpha 1.5, no diurnal swing over a 60s period. *)

type config = {
  requests : int;  (** request frames to issue *)
  batch : int;  (** decide requests per frame *)
  candidates : int;  (** max candidate tags per decide request *)
  space : int;  (** max free provenance slots per request *)
  publish_every : int;  (** one publish per this many frames; 0 = never *)
  node : int;  (** estimator slot the publishes target *)
  seed : int;
  propagation : bool;
      (** mint a trace context per roundtrip (seeded with [seed]) and
          send it in the v2 request body *)
  open_loop : open_loop option;
      (** [None] (the default) issues back-to-back, closed-loop; the
          arrival schedule draws from its own seeded stream, so the
          decide mix is byte-identical either way *)
}

val default_config : config
(** 5000 requests of batch 10 (50k decisions), up to 6 candidates,
    space up to 4, a publish every 100 frames to node 0, seed 7,
    propagation off, closed-loop. *)

type report = {
  requests : int;  (** frames completed *)
  decisions : int;  (** individual decide requests answered *)
  remote_errors : int;  (** [Err] replies (should be 0) *)
  retries : int;  (** transport retries spent *)
  elapsed_seconds : float;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  throughput_rps : float;  (** request frames per second *)
  trace_id : string option;
      (** trace id of the final roundtrip, when propagation was on —
          recent enough to still be in a bounded [/tracez] tail *)
  offered_rps : float option;
      (** open-loop mode only: the rate the schedule actually offered *)
  max_lag_ms : float option;
      (** open-loop mode only: worst observed lag behind the arrival
          schedule (0 when the service kept up) *)
}

val run :
  ?config:config ->
  ?registry:Mitos_obs.Registry.t ->
  ?client_timeout:float ->
  ?obs:Mitos_obs.Obs.t ->
  Transport.endpoint ->
  (report, Client.error) result
(** [Error] only when the connection cannot be established or retries
    are exhausted mid-run; [Err] replies are counted, not fatal.
    [obs] (default disabled) is handed to the {!Client} for per-op
    spans; with [config.propagation] set, its clock also seeds the
    trace-id generator. *)

val render : report -> string
(** Human summary; includes the greppable lines
    ["decision requests: N"] and ["retries exhausted: 0|1"] the CI
    smoke job asserts on, plus ["sample trace id: <id>"] when
    propagation was on. *)
