(* replay_netbench and replay_allflows: the `mitos-cli replay` path.

   Set-up records a netbench trace and encodes it once. Each round then
   decodes the trace from bytes, builds the engine and replays every
   record, exactly as the CLI does with a trace file. Rounds repeat
   until the time is up. Off the clock, every round's final shadow
   state and engine counters are compared with one replay under a
   reference policy that decides with the direct Alg. 2
   ([Mitos.Decision.alg2]) instead of the [Cost.Fast] tables. *)

open Mitos_tag
module Engine = Mitos_dift.Engine
module Policy = Mitos_dift.Policy
module Trace = Mitos_replay.Trace
module Workload = Mitos_workload.Workload
module Calib = Mitos_experiments.Calib

type policy = Mitos | Mitos_all_flows

let params = Calib.sensitivity_params ()

(* The policies and engine configs `mitos-cli replay -p mitos` and
   `-p mitos-all-flows` use. *)
let policy_under_test = function
  | Mitos -> Mitos_dift.Policies.mitos params
  | Mitos_all_flows -> Calib.mitos_all_flows params

let engine_config = function
  | Mitos -> Engine.default_config
  | Mitos_all_flows -> Calib.attack_engine_config

(* [Policies.mitos]'s selection rule over the direct Alg. 2. *)
let reference_policy kind =
  let handle_direct = kind = Mitos_all_flows in
  Policy.make ~name:"reference" ~select:(fun (r : Policy.request) ->
      if (not handle_direct) && not (Policy.is_indirect r.kind) then r.candidates
      else
        let env =
          { Mitos.Decision.count = Tag_stats.count r.stats;
            pollution = Mitos.Cost.weighted_pollution params r.stats }
        in
        Mitos.Decision.alg2_accepted params env ~space:r.space r.candidates)

let traced_policy sp inner =
  Policy.make ~name:(Policy.name inner) ~select:(fun request ->
      Span.enter sp Span.Policy_select;
      let tags = Policy.select inner request in
      Span.leave sp;
      tags)

let replay sp ~config ~policy built bytes =
  Span.enter sp Span.Round;
  Span.enter sp Span.Trace_decode;
  let trace = Trace.of_string bytes in
  Span.leave sp;
  Span.enter sp Span.Engine_setup;
  let policy = if sp.Span.on then traced_policy sp (policy ()) else policy () in
  let engine = Workload.replay_engine ~config ~policy built trace in
  Span.leave sp;
  Span.enter sp Span.Engine_replay;
  Array.iter (Engine.process_record engine) (Trace.records trace);
  Span.leave sp;
  Span.leave sp;
  engine

let fingerprint engine =
  (Digest.string (Shadow.to_string (Engine.shadow engine)), Engine.counters engine)

type round = {
  traced : bool;
  seconds : float;
  words : float;
  mutable digest : string;
  counters : Engine.counters;
}

(* Set-up is timed again before every [setup_every]-th round. *)
let setup_every = 4

let run kind ~seed ~scale ~seconds ~traced ~fault =
  let chunks = match scale with Outcome.Full -> 96 | Outcome.Smoke -> 2 in
  (* the two workloads replay different traces of the same shape *)
  let seed = match kind with Mitos -> seed | Mitos_all_flows -> seed + 7919 in
  let setup, (built, bytes, records) =
    Outcome.setup ~teardown:ignore (fun () ->
        let built = Mitos_workload.Netbench.build ~seed ~chunks () in
        let trace = Workload.record built in
        (built, Trace.to_string trace, Trace.length trace))
  in
  let config = engine_config kind in
  let sp = Span.create ~tid:1 in
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] in
  while List.length !rounds < 2 || Span.now () < deadline do
    if List.length !rounds mod setup_every = setup_every - 1 then Outcome.resample setup;
    sp.Span.on <- traced && List.length !rounds mod 2 = 1;
    let t0 = Span.now () in
    let engine, words =
      Outcome.minor_words_during (fun () ->
          replay sp ~config ~policy:(fun () -> policy_under_test kind) built bytes)
    in
    let t1 = Span.now () in
    let traced = sp.Span.on in
    sp.Span.on <- false;
    let digest, counters = fingerprint engine in
    rounds :=
      { traced; seconds = float_of_int (t1 - t0) /. 1e9; words; digest; counters }
      :: !rounds
  done;
  let peak_heap_mb = Outcome.peak_heap_mb () in
  let rounds = List.rev !rounds in
  if fault then begin
    let r = List.hd rounds in
    r.digest <-
      String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) r.digest
  end;
  let ref_digest, ref_counters =
    fingerprint
      (replay sp ~config ~policy:(fun () -> reference_policy kind) built bytes)
  in
  let failed =
    List.length
      (List.filter
         (fun r -> r.digest <> ref_digest || r.counters <> ref_counters)
         rounds)
  in
  let traced, untraced = List.partition (fun r -> r.traced) rounds in
  let n = float_of_int records in
  let seconds rs = List.map (fun r -> r.seconds) rs in
  let overhead =
    if traced = [] then 0.0
    else
      100.0
      *. (Outcome.ratio (Outcome.median (seconds traced))
            (Outcome.median (seconds untraced))
         -. 1.0)
  in
  let rs = [ sp ] in
  let total = Span.total rs and calls = Span.calls rs in
  let traced_records = n *. calls Span.Round in
  let per_record kind = Outcome.ratio (Span.self rs kind) traced_records in
  ( Outcome.make ~attempted:(List.length rounds) ~failed
      ~e2e:
        [ ("setup_s", Outcome.setup_s setup);
          ( "throughput_per_s",
            Outcome.better_half_median ~lower:false
              (List.map (fun r -> n /. r.seconds) untraced) );
          ( "latency_p50_us",
            1e6 *. Outcome.better_half_median ~lower:true (seconds untraced) );
          ("peak_heap_mb", peak_heap_mb) ]
      ~layer:
        [ ("trace.decode_ns_per_record", per_record Span.Trace_decode);
          ("engine.self_ns_per_record", per_record Span.Engine_replay);
          ( "engine.setup_ms",
            Outcome.ratio (total Span.Engine_setup) (calls Span.Engine_setup) /. 1e6 );
          ( "engine.shadow_ops_per_record",
            float_of_int ref_counters.Engine.shadow_ops /. n );
          ( "engine.evictions_per_krecord",
            1000.0 *. float_of_int ref_counters.Engine.evictions /. n );
          ( "gc.minor_words_per_record",
            Outcome.median (List.map (fun r -> r.words /. n) untraced) );
          ( "policy.ns_per_call",
            Outcome.ratio (total Span.Policy_select) (calls Span.Policy_select) );
          ( "policy.calls_per_record",
            Outcome.ratio (calls Span.Policy_select) traced_records );
          ( "policy.share",
            Outcome.ratio (total Span.Policy_select) (total Span.Round) );
          ( "stage_coverage",
            Outcome.ratio
              (total Span.Trace_decode +. total Span.Engine_setup
              +. total Span.Engine_replay)
              (total Span.Round) );
          ("tracing.overhead_pct", overhead) ],
    rs )
