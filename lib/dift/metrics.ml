open Mitos_tag

type summary = {
  policy : string;
  steps : int;
  wall_seconds : float;
  shadow_ops : int;
  footprint_bytes : int;
  tainted_bytes : int;
  total_copies : int;
  distinct_tags : int;
  ifp_propagated : int;
  ifp_blocked : int;
  dfp_propagated : int;
  ctrl_scopes : int;
  detected_bytes : int;
  fairness : Mitos.Fairness.report;
}

let detection_bytes shadow =
  Shadow.bytes_with_both shadow Tag_type.Network Tag_type.Export_table

let of_engine ?(wall_seconds = 0.0) engine =
  let shadow = Engine.shadow engine in
  let stats = Shadow.stats shadow in
  let c = Engine.counters engine in
  {
    policy = Policy.name (Engine.policy engine);
    steps = c.Engine.steps;
    wall_seconds;
    shadow_ops = c.Engine.shadow_ops;
    footprint_bytes = Shadow.footprint_bytes shadow;
    tainted_bytes = Shadow.tainted_bytes shadow;
    total_copies = Tag_stats.total stats;
    distinct_tags = Tag_stats.distinct stats;
    ifp_propagated = c.Engine.ifp_propagated;
    ifp_blocked = c.Engine.ifp_blocked;
    dfp_propagated = c.Engine.dfp_propagated;
    ctrl_scopes = c.Engine.ctrl_scopes_opened;
    detected_bytes = detection_bytes shadow;
    fairness = Mitos.Fairness.of_stats stats;
  }

let measure_run ?max_steps engine =
  let t0 = Mitos_util.Clock.now_ns () in
  ignore (Engine.run ?max_steps engine);
  let wall_seconds = float_of_int (Mitos_util.Clock.now_ns () - t0) /. 1e9 in
  of_engine ~wall_seconds engine

let propagation_rate s =
  let total = s.ifp_propagated + s.ifp_blocked in
  if total = 0 then 1.0 else float_of_int s.ifp_propagated /. float_of_int total

let header =
  [
    "policy"; "steps"; "shadow-ops"; "space(B)"; "tainted"; "copies";
    "ifp+"; "ifp-"; "detected"; "mse";
  ]

let row s =
  [
    s.policy;
    string_of_int s.steps;
    string_of_int s.shadow_ops;
    string_of_int s.footprint_bytes;
    string_of_int s.tainted_bytes;
    string_of_int s.total_copies;
    string_of_int s.ifp_propagated;
    string_of_int s.ifp_blocked;
    string_of_int s.detected_bytes;
    Printf.sprintf "%.3g" s.fairness.Mitos.Fairness.mse;
  ]

type timeline = {
  steps_series : Mitos_util.Timeseries.t;
  copies : Mitos_util.Timeseries.t;
  tainted : Mitos_util.Timeseries.t;
  distinct : Mitos_util.Timeseries.t;
}

type sample = {
  at_step : int;
  sampled_copies : int;
  sampled_tainted : int;
  sampled_distinct : int;
}

(* The one sampling path for run-level quantities: every consumer — the
   Timeseries-based timeline below, the CLI's --metrics-out gauges —
   rides the same on_record hook instead of installing its own. *)
let attach_sampler ?(sample_every = 1024) ?registry
    ?(observe = fun (_ : sample) -> ()) engine =
  if sample_every < 1 then invalid_arg "Metrics.attach_sampler: sample_every";
  let gauges =
    Option.map
      (fun reg ->
        let module R = Mitos_obs.Registry in
        ( R.gauge reg ~help:"machine step at the last sample" "mitos_run_step",
          R.gauge reg ~help:"total tag copies" "mitos_run_tag_copies",
          R.gauge reg ~help:"tainted memory bytes" "mitos_run_tainted_bytes",
          R.gauge reg ~help:"live distinct tags" "mitos_run_distinct_tags" ))
      registry
  in
  let count = ref 0 in
  Engine.on_record engine (fun record ->
      incr count;
      if !count mod sample_every = 0 then begin
        let stats = Engine.stats engine in
        let s =
          {
            at_step = record.Mitos_isa.Machine.step;
            sampled_copies = Tag_stats.total stats;
            sampled_tainted = Shadow.tainted_bytes (Engine.shadow engine);
            sampled_distinct = Tag_stats.distinct stats;
          }
        in
        (match gauges with
        | Some (step_g, copies_g, tainted_g, distinct_g) ->
          let module R = Mitos_obs.Registry in
          R.set_gauge step_g (float_of_int s.at_step);
          R.set_gauge copies_g (float_of_int s.sampled_copies);
          R.set_gauge tainted_g (float_of_int s.sampled_tainted);
          R.set_gauge distinct_g (float_of_int s.sampled_distinct)
        | None -> ());
        observe s
      end)

let attach_timeline ?sample_every engine =
  let timeline =
    {
      steps_series = Mitos_util.Timeseries.create ~name:"steps" ();
      copies = Mitos_util.Timeseries.create ~name:"copies" ();
      tainted = Mitos_util.Timeseries.create ~name:"tainted" ();
      distinct = Mitos_util.Timeseries.create ~name:"distinct" ();
    }
  in
  attach_sampler ?sample_every engine ~observe:(fun s ->
      let step = float_of_int s.at_step in
      Mitos_util.Timeseries.add timeline.steps_series step step;
      Mitos_util.Timeseries.add timeline.copies step
        (float_of_int s.sampled_copies);
      Mitos_util.Timeseries.add timeline.tainted step
        (float_of_int s.sampled_tainted);
      Mitos_util.Timeseries.add timeline.distinct step
        (float_of_int s.sampled_distinct));
  timeline

let pp ppf s =
  Format.fprintf ppf
    "%s: steps=%d ops=%d space=%dB tainted=%d copies=%d ifp=+%d/-%d \
     detected=%d"
    s.policy s.steps s.shadow_ops s.footprint_bytes s.tainted_bytes
    s.total_copies s.ifp_propagated s.ifp_blocked s.detected_bytes
