(** Instrumentation-overhead benchmark: the engine-replay workload of
    the bench harness run five ways — un-instrumented baseline,
    instrumented against the no-op sink ({!Mitos_obs.Obs.disabled}),
    fully enabled on the real clock, enabled with an attached-but-idle
    {!Mitos_obs.Server} exposition server, and enabled plus the
    {!Mitos_obs.Audit} decision flight recorder — so the
    observability layer's cost contract (no-op sink, audit disabled,
    within 5% of baseline) is measurable, not asserted. The replay
    runs under [Policies.mitos], so the decision hot path (including
    its decision-context checks) is part of every mode, and every
    instrumented mode also times Alg. 2 into its obs context. *)

type result = {
  records : int;  (** replayed records per repetition *)
  repetitions : int;
  baseline_s : float;  (** best wall time, un-instrumented *)
  disabled_s : float;  (** best wall time, no-op sink *)
  enabled_s : float;  (** best wall time, enabled (real clock) *)
  server_s : float;
      (** best wall time, enabled + idle exposition server attached *)
  audit_s : float;  (** best wall time, enabled + audit recorder *)
  profiled_s : float;
      (** best wall time with the profiler on: enabled obs, a
          background {!Mitos_obs.Runtime} sampler, and one trace
          context minted per record *)
}

val measure : unit -> result
(** Seed 1, 5000 records, best of 10 repetitions (after one warm-up)
    per mode. *)

val disabled_overhead : result -> float
(** [(disabled - baseline) / baseline]; the ≤ 0.05 contract. *)

val enabled_overhead : result -> float

val server_overhead : result -> float
(** Overhead of having the exposition server attached but idle (its
    domain parked in the accept poll, nothing scraping): the hot path
    must not notice the server — same ≤ 0.05 contract. *)

val audit_overhead : result -> float
(** Overhead of full decision auditing (ring recording on every
    Alg. 1/2 call, eviction hook, per-consult context stamping). *)

val profiled_overhead : result -> float
(** Overhead of the full profiling stack (propagation id minting +
    runtime GC/lock sampling) — informational; the profiler is
    opt-in, so no contract binds it. *)

val contract_ok : result -> bool
(** The ≤ 5% disabled-overhead contract: [disabled_overhead r <= 0.05].
    Rendered as a PASS/FAIL line by {!run}. *)

(** Aggregated shard-lock traffic of one estimator hammer run — the
    [lock_estimator_contention] before/after comparison {!run} prints
    (1 shard vs 4 shards under the same 4-domain publish+global
    load). *)
type estimator_contention = {
  est_shards : int;
  est_wall_s : float;
  est_acquisitions : int;
  est_contended : int;  (** acquisitions that found the lock held *)
  est_wait_ns : int;
}

val measure_estimator_contention :
  ?domains:int -> ?rounds:int -> shards:int -> unit -> estimator_contention
(** Defaults: 4 domains, 25k rounds each of two publishes + two global
    reads, against a fresh [domains * 2]-node estimator. *)

val contended_share : estimator_contention -> float
(** [contended / acquisitions], 0 when idle. *)

val run : unit -> Report.section
(** The report [bench/main.exe obs] prints: the one entry point for
    the 5% obs contract. *)
