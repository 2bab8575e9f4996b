(** Blame attribution: join the decision flight recorder's audit log
    against ground-truth oracle runs and name the decision record(s)
    — or provenance evictions — behind every over- and under-tainted
    byte.

    The audited run executes [Policies.mitos params] in engines
    instrumented with the recorder; two oracle runs bound the
    truth from both sides. [propagate-all] is the reachability upper
    bound — taint it produces that the audited run lacks is
    {e under}-tainting, attributed to Block records and evictions of
    the missing tag. [faros] (direct flows only) is the lower bound —
    audited taint beyond it arrived through an indirect-flow decision
    and is accounted as {e over}, attributed to the Propagate records
    that admitted the tag. A byte with no matching record is reported
    UNATTRIBUTED — on the litmus suite the attribution is complete
    (asserted by the test suite), because every indirect propagation
    difference passes through an audited Alg. 2 call.

    The audited run is sequential, since all its decisions append to
    one recorder; [pool] only fans out the oracle runs, so summaries
    and the audit JSONL are byte-identical at every [--jobs] degree. *)

type direction = Over | Under

val direction_to_string : direction -> string

type finding = {
  case : string;  (** litmus case or workload name *)
  addr : int;
  tag : string;
  direction : direction;
  blamed : int list;  (** audit record ids, ascending; [] = unattributed *)
}

type summary = {
  findings : finding list;  (** over first, then under, address order *)
  attributed : int;  (** findings with at least one blamed record *)
  total : int;
  audit : Mitos_obs.Audit.t;  (** the recorder, for JSONL/flow-graph reuse *)
}

val litmus :
  ?capacity:int ->
  ?sink:(string -> unit) ->
  ?pool:Mitos_parallel.Pool.t ->
  Mitos.Params.t ->
  summary
(** Run the full litmus suite audited under [Policies.mitos params]
    and attribute every differing byte. The shared log is segmented
    per case by [Note] records ("case:<name>"), and each case's
    findings join only its own segment. *)

val workload :
  ?capacity:int ->
  ?sink:(string -> unit) ->
  ?pool:Mitos_parallel.Pool.t ->
  ?config:Mitos_dift.Engine.config ->
  ?max_steps:int ->
  name:string ->
  Mitos.Params.t ->
  (unit -> Mitos_workload.Workload.built) ->
  summary
(** Same analysis over a workload. [build] is called three times (the
    audited run and both oracles), so it must return a fresh
    deterministic build each time. *)

val ranked :
  summary -> (direction * string * int * int * int list) list
(** Per-(direction, tag, pc) ranking, most bytes first:
    [(direction, tag, pc, bytes, record ids)] where [bytes] counts the
    findings whose blame includes a decision record at that pc. *)

val report : title:string -> summary -> Report.section
(** Render the summary: coverage line, per-finding table (capped),
    and the ranked per-tag/per-pc table. *)
