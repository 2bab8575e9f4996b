module Obs = Mitos_obs.Obs
module Server = Mitos_obs.Server
module Alerts = Mitos_obs.Alerts
module Audit = Mitos_obs.Audit
module Registry = Mitos_obs.Registry
module Engine = Mitos_dift.Engine
module Metrics = Mitos_dift.Metrics
module Shadow = Mitos_tag.Shadow

type source = {
  obs : Obs.t;
  slo : Alerts.t option;
  audit : Audit.t option;
  progress : (unit -> Engine.progress) option;
}

let source ?slo ?audit ?progress obs = { obs; slo; audit; progress }

let progress_json (p : Engine.progress) =
  Printf.sprintf
    "{\"step\":%d,\"pc\":%d,\"direct_events\":%d,\"indirect_events\":%d,\
     \"dfp_propagated\":%d,\"ifp_propagated\":%d,\"ifp_blocked\":%d,\
     \"shadow_ops\":%d,\"evictions\":%d,\"open_scopes\":%d,\
     \"source_bytes\":%d,\"sink_tainted_bytes\":%d}"
    p.prog_step p.prog_pc p.prog_direct_events p.prog_indirect_events
    p.prog_dfp_propagated p.prog_ifp_propagated p.prog_ifp_blocked
    p.prog_shadow_ops p.prog_evictions p.prog_open_scopes
    p.prog_source_bytes p.prog_sink_tainted_bytes

let audit_json recorder =
  Printf.sprintf "{\"length\":%d,\"dropped\":%d,\"next_id\":%d}"
    (Audit.length recorder) (Audit.dropped recorder) (Audit.next_id recorder)

let snapshot_json t =
  let opt f = function None -> "null" | Some x -> f x in
  Printf.sprintf
    "{\"progress\":%s,\"audit\":%s,\"health\":%s,\"alerts\":%s,\"metrics\":%s}"
    (opt (fun thunk -> progress_json (thunk ())) t.progress)
    (opt audit_json t.audit)
    (opt Alerts.healthz_json t.slo)
    (match t.slo with
    | Some slo when Alerts.has_burn_rules slo -> Alerts.to_json slo
    | Some _ | None -> "null")
    (Obs.metrics_json t.obs)

(* Last [n] lines of a JSONL payload (rings are bounded, but live
   scrapers want the tail, not a 64k-event dump). *)
let last_lines n s =
  let lines = String.split_on_char '\n' s in
  let lines = List.filter (fun l -> l <> "") lines in
  let len = List.length lines in
  let tail =
    if len <= n then lines else List.filteri (fun i _ -> i >= len - n) lines
  in
  match tail with [] -> "" | _ -> String.concat "\n" tail ^ "\n"

let health_verdict t =
  match t.slo with
  | None -> (true, "status: ok (no SLO rules attached)\n")
  | Some slo -> Alerts.healthz slo

let healthz_payload t () =
  let ok, body = health_verdict t in
  Server.text ~status:(if ok then 200 else 503) body

(* Keep only lines mentioning the given trace id. Matching is textual
   on the JSONL — ids are validated hex, so the quoted-arg form cannot
   appear by accident. The filter runs before the tail so a full trace
   survives even when newer unrelated spans crowd the ring. *)
let filter_trace ~trace_id s =
  let needle = Printf.sprintf "\"trace_id\":\"%s\"" trace_id in
  let contains line =
    let nl = String.length needle and ll = String.length line in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "" && contains l)
  |> (function [] -> "" | lines -> String.concat "\n" lines ^ "\n")

let tracez_payload ?pid t ~last query =
  let jsonl = Mitos_obs.Chrome_trace.to_jsonl ?pid (Obs.tracer t.obs) in
  match List.assoc_opt "trace_id" query with
  | Some trace_id when trace_id <> "" ->
    Server.text (last_lines last (filter_trace ~trace_id jsonl))
  | Some _ | None -> Server.text (last_lines last jsonl)

let routes ?(last = 256) ?pid t =
  [
    Server.route ~file:"metrics.prom"
      ~describe:"Prometheus exposition (registry)" "/metrics" (fun () ->
        Server.prometheus (Obs.prometheus t.obs));
    Server.route ~file:"healthz.txt" ~describe:"liveness + SLO verdict"
      "/healthz" (healthz_payload t);
    Server.route ~file:"snapshot.json"
      ~describe:"registry + engine progress + audit + health" "/snapshot.json"
      (fun () -> Server.json (snapshot_json t));
    Server.route_q ~file:"tracez.jsonl"
      ~describe:"trace ring tail (Chrome-trace JSONL); ?trace_id= filters"
      "/tracez"
      (tracez_payload ?pid t ~last);
    Server.route ~file:"auditz.jsonl" ~describe:"audit ring tail (JSONL)"
      "/auditz" (fun () ->
        match t.audit with
        | None -> Server.text "no audit recorder attached\n"
        | Some recorder -> Server.text (last_lines last (Audit.to_jsonl recorder)));
  ]
  @ match t.slo with None -> [] | Some slo -> Alerts.routes slo

(* -- Standard signals ------------------------------------------------ *)

let standard_signals ?over_taint_bound ~obs engine (s : Metrics.sample) =
  let c = Engine.counters engine in
  let shadow = Engine.shadow engine in
  let latency =
    Registry.histogram (Obs.registry obs) ~lo:1.0 ~growth:2.0 ~buckets:32
      "mitos_engine_record_latency_ticks"
  in
  let over_taint =
    match over_taint_bound with
    | Some bound when bound > 0.0 ->
      [ ("over_taint_ratio", float_of_int s.sampled_tainted /. bound) ]
    | Some _ | None -> []
  in
  (* per-shard occupancy of the sharded shadow store, as bounded-
     cardinality gauges (one label value per shard) plus a single
     max/mean imbalance signal for SLOs *)
  let occ = Shadow.shard_occupancy shadow in
  if Array.length occ <= 64 then
    Array.iteri
      (fun i n ->
        Registry.set_gauge
          (Registry.gauge (Obs.registry obs)
             ~help:"tainted bytes per shadow-store shard"
             ~labels:[ ("shard", string_of_int i) ]
             "mitos_shadow_shard_occupancy")
          (float_of_int n))
      occ;
  let shard_imbalance =
    let total = Array.fold_left ( + ) 0 occ in
    if total = 0 || Array.length occ <= 1 then 1.0
    else
      float_of_int (Array.fold_left max 0 occ)
      /. (float_of_int total /. float_of_int (Array.length occ))
  in
  over_taint
  @ [
      ("shadow_shard_imbalance", shard_imbalance);
      ("decision_p50_ticks", Mitos_obs.Histogram.quantile latency 0.5);
      ("decision_p99_ticks", Mitos_obs.Histogram.quantile latency 0.99);
      ( "eviction_rate",
        float_of_int c.evictions /. float_of_int (max 1 c.steps) );
      ( "tag_space_occupancy",
        Shadow.pollution shadow ~o:(Array.make Mitos_tag.Tag_type.count 1.0) );
      ("tainted_bytes", float_of_int s.sampled_tainted);
      ("distinct_tags", float_of_int s.sampled_distinct);
    ]

let default_rules =
  [
    Alerts.threshold ~signal:"over_taint_ratio" ~cmp:Alerts.Le ~bound:1.0 ();
    Alerts.threshold ~signal:"eviction_rate" ~cmp:Alerts.Le ~bound:0.5 ();
    Alerts.threshold ~signal:"tag_space_occupancy" ~cmp:Alerts.Le ~bound:0.9 ();
  ]

(* -- The pilot run --------------------------------------------------- *)

module Workload = Mitos_workload.Workload
module Policies = Mitos_dift.Policies
module Driver = Mitos_replay.Driver

type pilot = {
  src : source;
  engine : Engine.t;
  replay : unit -> unit;
  over_taint_bound : float;
}

let sweep_policies params =
  [
    ("faros", Policies.faros);
    ("propagate-all", Policies.propagate_all);
    ("mitos", Policies.mitos params);
  ]

let pilot ?params ?rules ?(window = 0.0) ?clock ?(sample_every = 256)
    ?(audit_capacity = 65536) ?pool ~build () =
  let params =
    match params with Some p -> p | None -> Calib.sensitivity_params ()
  in
  let clock =
    match clock with Some c -> c | None -> Mitos_obs.Obs_clock.logical ()
  in
  let obs = Obs.create ~clock () in
  let registry = Obs.registry obs in
  let trace = Workload.record (build ()) in
  (* Oracle-panel sweep on the pool. Workers replay un-instrumented
     engines, whose policies decide under [Decision.no_ctx], so nothing
     they do can perturb the obs context — the determinism across
     --jobs hinges on this. *)
  let summaries =
    Mitos_parallel.Pool.map_opt pool
      ~f:(fun (name, policy) ->
        (name, Metrics.of_engine (Workload.replay ~policy (build ()) trace)))
      (sweep_policies params)
  in
  List.iter
    (fun (name, (s : Metrics.summary)) ->
      let g metric v =
        Registry.set_gauge
          (Registry.gauge registry ~labels:[ ("policy", name) ] metric)
          v
      in
      g "mitos_sweep_tainted_bytes" (float_of_int s.tainted_bytes);
      g "mitos_sweep_shadow_ops" (float_of_int s.shadow_ops);
      g "mitos_sweep_ifp_propagated" (float_of_int s.ifp_propagated);
      g "mitos_sweep_ifp_blocked" (float_of_int s.ifp_blocked))
    summaries;
  let over_taint_bound =
    match List.assoc_opt "propagate-all" summaries with
    | Some s -> float_of_int s.Metrics.tainted_bytes
    | None -> 0.0
  in
  Registry.set_gauge
    (Registry.gauge registry ~help:"propagate-all final tainted bytes"
       "mitos_sweep_over_taint_bound")
    over_taint_bound;
  let rules = match rules with Some r -> r | None -> default_rules in
  let slo = Alerts.create ~window ~rules () in
  Alerts.link_tracer slo (Obs.tracer obs);
  let audit = Audit.create ~capacity:audit_capacity () in
  let engine_cell = ref None in
  let observe (s : Metrics.sample) =
    match !engine_cell with
    | None -> ()
    | Some engine ->
      Alerts.observe slo ~at:(float_of_int s.Metrics.at_step)
        (standard_signals ~over_taint_bound ~obs engine s)
  in
  let engine =
    Workload.replay_engine ~obs ~sample_every ~observe ~audit
      ~policy:(Policies.mitos params) (build ()) trace
  in
  engine_cell := Some engine;
  let replay () =
    ignore (Driver.run ~obs trace ~f:(Engine.process_record engine))
  in
  let src =
    source ~slo ~audit
      ~progress:(fun () -> Engine.progress engine)
      obs
  in
  { src; engine; replay; over_taint_bound }
