(** The perf-regression gate: compare [bench/perf] runs of a base and
    a change made on the same runner.

    [mitos-cli bench compare --base FILE… --change FILE…] (and the CI
    job behind it) reads the [results.json] that each [perf.exe run]
    writes, one or more per side, and takes the end-to-end metrics —
    name, better direction and bound — from [BENCHMARK.json]. For
    every workload × end-to-end metric it takes each side's median
    over its runs and its min–max range:

    - the metric {e regresses} when the change's median is worse than
      the base's by more than the bound {e and} every change run is
      worse than every base run;
    - it is {e unresolved} (printed, not failed) when the median is
      past the bound but the two ranges overlap: reruns of unchanged
      code on a shared 2-vCPU runner spread that wide;
    - a NaN or missing value in a change run, where the base has a
      value, regresses;
    - a metric the base has no value for is skipped;
    - a zero base median has no scale, so it is compared in absolute
      terms: any move in the worse direction counts as past the bound.

    The change also fails when any of its runs reports
    [correct=false], or when its failed/attempted share on a workload
    is higher than the base's. Files whose runner fingerprints differ
    in [nproc] or [cpu] are incomparable, so no committed baseline from
    another machine can be read against a fresh run. *)

type direction =
  | Lower_better  (** latencies, set-up, heap *)
  | Higher_better  (** throughputs *)

type verdict =
  | Pass
  | Unresolved  (** median past the bound, ranges overlap *)
  | Regressed

type side = {
  median : float;  (** over the runs that have a value; [nan] if none *)
  lo : float;
  hi : float;
  missing : int;  (** runs with no value, or NaN *)
}

type row = {
  workload : string;
  metric : string;
  direction : direction;
  bound : float;  (** share of the base median, from [BENCHMARK.json] *)
  base : side;
  change : side;
  change_pct : float;
      (** signed, positive = moved in the {e bad} direction; a zero
          base median gives [infinity] when the change moved the bad
          way, [neg_infinity] when it improved, [0.0] when equal *)
  verdict : verdict;
}

type report = {
  runner : string;  (** ["nproc=… cpu=…"], shared by every file *)
  base_runs : int;
  change_runs : int;
  rows : row list;
      (** workloads in first-seen order (base files first), metrics in
          [BENCHMARK.json] order *)
  skipped : string list;  (** ["workload metric"] with no base value *)
  failures : string list;
      (** one line per [correct=false] change run and per workload
          whose failed share rose *)
}

val regressions : report -> row list
val unresolved : report -> row list

val ok : report -> bool
(** No regressed row and no failure. *)

val of_json :
  spec:string -> base:string list -> change:string list ->
  (report, string) result
(** [spec] is the text of [BENCHMARK.json]; [base] and [change] the
    texts of the [results.json] files. [Error] when a side has no
    runs, a document does not parse or lacks the fields compared, a
    result comes from a traced run, or the runner fingerprints differ
    (["incomparable: …"]). *)

val of_files :
  spec:string -> base:string list -> change:string list ->
  (report, string) result
(** {!of_json} over file paths; errors name the file, and an
    unreadable path is an [Error], not an exception. *)

val render : report -> string
(** The human/CI table: the runner, one line per row with each side's
    median and [min, max] range, the change and the verdict, then a
    summary that names every regressed or unresolved
    ["workload metric"] and every failure. A zero-baseline row shows
    its absolute change (["+5 abs"], positive = bad). *)
