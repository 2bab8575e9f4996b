(** The perf-regression gate: diff two [BENCH_decisions.json] files.

    [mitos-cli bench compare OLD.json NEW.json --tolerance PCT] (and
    the CI job behind it) compares the microbenchmark figures that
    gate the hot path — Alg. 1/Alg. 2 per-decision latency and engine
    replay throughput — and fails when any of them moved against us by
    more than the tolerance. Derived figures (speedups,
    decisions-per-second) and the load-sensitive pool timings are
    deliberately not gated: they re-derive from the gated ones and
    would double-count noise.

    A metric present in only one file is reported as skipped, not
    failed, so the gate survives schema growth in either direction. *)

type direction =
  | Lower_better  (** latencies: regression when NEW exceeds OLD *)
  | Higher_better  (** throughputs: regression when NEW trails OLD *)

type row = {
  metric : string;  (** dotted path, e.g. ["alg1.direct_ns"] *)
  direction : direction;
  old_value : float;
  new_value : float;
  change_pct : float;
      (** signed, positive = moved in the {e bad} direction. A zero
          baseline has no scale, so it is compared in absolute terms:
          [infinity] when the value moved in the bad direction at all,
          [neg_infinity] when it improved, [0.0] when unchanged. *)
  regressed : bool;  (** [change_pct > tolerance_pct] *)
}

type report = {
  tolerance_pct : float;
  rows : row list;  (** in {!gated_metrics} order *)
  skipped : string list;  (** metrics missing from either file *)
}

val gated_metrics : (string list * direction) list
(** The compared paths, in report order. *)

val regressions : report -> row list
val ok : report -> bool

val of_json :
  tolerance_pct:float -> old_json:string -> new_json:string ->
  (report, string) result
(** [Error] on unparseable input or a wrong/missing [schema] marker;
    the tolerance must be non-negative. *)

val of_files : tolerance_pct:float -> string -> string -> (report, string) result
(** Reads both files; [Error] (not an exception) on an unreadable
    path. *)

val render : report -> string
(** The human/CI table: one line per row with old/new/change and a
    verdict line ([ok] or [REGRESSION: n metric(s) ...]). A
    zero-baseline row shows its absolute change (["+5.00 abs"],
    positive = bad) instead of a percentage. *)
