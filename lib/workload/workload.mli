(** Workload plumbing: a built workload bundles the assembled program
    with the OS instance holding its resources (connections, files,
    processes). Building is deterministic in the seed, so recording
    the same workload twice yields byte-identical traces. *)

open Mitos_dift

type built = {
  name : string;
  description : string;
  program : Mitos_isa.Program.t;
  os : Mitos_system.Os.t;
}

val machine_of : built -> Mitos_isa.Machine.t
(** A fresh machine (full {!Mitos_system.Layout.mem_size} memory) wired
    to the workload's OS. *)

val engine_of : ?config:Engine.config -> policy:Policy.t -> built -> Engine.t
(** An engine for this workload's program and taint sources (not yet
    attached to a machine or shadow). *)

val run_live :
  ?config:Engine.config ->
  ?max_steps:int ->
  ?obs:Mitos_obs.Obs.t ->
  ?sample_every:int ->
  ?observe:(Metrics.sample -> unit) ->
  ?audit:Mitos_obs.Audit.t ->
  policy:Policy.t ->
  built ->
  Engine.t
(** Execute the workload under the policy, returning the finished
    engine. [obs] instruments the engine (see {!Engine.instrument});
    [sample_every] is its sampling period; [observe] additionally
    receives every {!Metrics.attach_sampler} sample (the SLO
    engine's feed — only called when [obs] is enabled); [audit]
    threads a decision flight recorder through the run (with or
    without [obs]). *)

val record : ?max_steps:int -> built -> Mitos_replay.Trace.t
(** Record an execution trace (the PANDA step). The workload's OS
    streams are consumed; build a fresh workload for another
    recording. The trace embeds the OS's source-id → tag table, so it
    is replayable on its own (including from disk). *)

val replay :
  ?config:Engine.config ->
  ?obs:Mitos_obs.Obs.t ->
  ?sample_every:int ->
  ?observe:(Metrics.sample -> unit) ->
  ?audit:Mitos_obs.Audit.t ->
  policy:Policy.t ->
  built ->
  Mitos_replay.Trace.t ->
  Engine.t
(** Replay a recorded trace under a policy. Taint sources resolve
    through the table embedded in the trace (falling back to the given
    workload's live OS for traces recorded before that table
    existed). The record loop goes through {!Mitos_replay.Driver.run},
    so with [obs] the run additionally produces replay spans and
    throughput metrics on top of the engine instrumentation. *)

val replay_engine :
  ?config:Engine.config ->
  ?obs:Mitos_obs.Obs.t ->
  ?sample_every:int ->
  ?observe:(Metrics.sample -> unit) ->
  ?audit:Mitos_obs.Audit.t ->
  policy:Policy.t ->
  built ->
  Mitos_replay.Trace.t ->
  Engine.t
(** The setup half of {!replay}: the wired engine with its shadow
    attached, before any record has been processed. Lets a caller
    (the telemetry pilot) publish the engine's {!Engine.progress} to
    an exposition server and {e then} drive the replay, so scrapes
    observe it mid-run. Drive it with {!Mitos_replay.Driver.run}. *)
