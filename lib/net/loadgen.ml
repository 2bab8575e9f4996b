open Mitos_tag
module Rng = Mitos_util.Rng
module Clock = Mitos_util.Clock
module Minijson = Mitos_util.Minijson
module Registry = Mitos_obs.Registry
module Histogram = Mitos_obs.Histogram
module Obs = Mitos_obs.Obs
module Propagation = Mitos_obs.Propagation

type open_loop = {
  rate_rps : float;
  pareto_alpha : float;
  diurnal_amp : float;
  diurnal_period_s : float;
}

let default_open_loop =
  { rate_rps = 500.0; pareto_alpha = 1.5; diurnal_amp = 0.0;
    diurnal_period_s = 60.0 }

type config = {
  requests : int;
  batch : int;
  candidates : int;
  space : int;
  publish_every : int;
  node : int;
  seed : int;
  propagation : bool;
  open_loop : open_loop option;
}

let default_config =
  {
    requests = 5000;
    batch = 10;
    candidates = 6;
    space = 4;
    publish_every = 100;
    node = 0;
    seed = 7;
    propagation = false;
    open_loop = None;
  }

type report = {
  requests : int;
  decisions : int;
  remote_errors : int;
  retries : int;
  elapsed_seconds : float;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  throughput_rps : float;
  trace_id : string option;
  offered_rps : float option;
  max_lag_ms : float option;
}

let gen_tag rng =
  Tag.make (Rng.pick_list rng Tag_type.all) (Rng.int rng 10_000)

let gen_decide rng cfg : Wire.decide_request =
  let n = 1 + Rng.int rng (max 1 cfg.candidates) in
  let candidates = List.init n (fun _ -> (gen_tag rng, Rng.int rng 64)) in
  {
    space = Rng.int rng (cfg.space + 1);
    pollution = Rng.float rng 1000.0;
    candidates;
  }

let run ?(config = default_config) ?registry ?client_timeout
    ?(obs = Obs.disabled) endpoint =
  if config.requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  if config.batch < 1 then invalid_arg "Loadgen.run: batch must be >= 1";
  (match config.open_loop with
  | Some o when o.rate_rps <= 0.0 ->
    invalid_arg "Loadgen.run: open-loop rate must be positive"
  | Some o when o.pareto_alpha <= 1.0 ->
    invalid_arg "Loadgen.run: open-loop pareto alpha must be > 1"
  | Some o when o.diurnal_period_s <= 0.0 ->
    invalid_arg "Loadgen.run: open-loop diurnal period must be positive"
  | _ -> ());
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let latency =
    Registry.histogram reg ~help:"client-observed round-trip latency"
      ~lo:100.0 ~growth:2.0 ~buckets:32 "mitos_net_client_latency_ns"
  in
  let rng = Rng.create config.seed in
  (* the arrival process draws from its own stream so the decide mix
     stays byte-identical to a closed-loop run of the same seed *)
  let arrival_rng = Rng.create (config.seed lxor 0x4f70656e) in
  let propagation =
    if config.propagation then
      Some (Propagation.create ~seed:config.seed (Obs.clock obs))
    else None
  in
  match
    Client.connect ?timeout:client_timeout ~obs ?propagation ~registry:reg
      endpoint
  with
  | Error _ as e -> e
  | Ok client ->
    let decisions = ref 0 and remote_errors = ref 0 in
    let fatal = ref None in
    let timed thunk =
      let t0 = Clock.now_ns () in
      match thunk () with
      | Ok () -> Histogram.observe latency (float_of_int (Clock.now_ns () - t0))
      | Error (Client.Remote _) -> incr remote_errors
      | Error err -> fatal := Some err
    in
    let t_start = Clock.now_ns () in
    let since_start () = float_of_int (Clock.now_ns () - t_start) /. 1e9 in
    (* Open-loop pacing: arrivals follow a seeded Pareto/diurnal
       schedule independent of service completions. When the service
       falls behind the schedule we issue immediately (never skip) and
       record the lag — the open-loop tell that a closed loop hides.
       Arrival times are seconds since [t_start]. *)
    let next_at = ref 0.0 in
    let max_lag = ref 0.0 in
    let pace () =
      match config.open_loop with
      | None -> ()
      | Some o ->
        let shape =
          Float.max 0.1
            (1.0
            +. o.diurnal_amp
               *. sin (2.0 *. Float.pi *. !next_at /. o.diurnal_period_s))
        in
        let mean = 1.0 /. (o.rate_rps *. shape) in
        let xm = mean *. (o.pareto_alpha -. 1.0) /. o.pareto_alpha in
        next_at := !next_at +. Rng.pareto arrival_rng ~alpha:o.pareto_alpha ~xm;
        let now = since_start () in
        if now < !next_at then Unix.sleepf (!next_at -. now)
        else max_lag := Float.max !max_lag (now -. !next_at)
    in
    let i = ref 1 in
    while !fatal = None && !i <= config.requests do
      pace ();
      timed (fun () ->
          let batch = List.init config.batch (fun _ -> gen_decide rng config) in
          match Client.decide client batch with
          | Ok _ ->
            decisions := !decisions + config.batch;
            Ok ()
          | Error err -> Error err);
      (* cluster traffic shape: a periodic publish rides along, on top
         of (not instead of) the decide stream *)
      if !fatal = None && config.publish_every > 0
         && !i mod config.publish_every = 0
      then
        timed (fun () ->
            match
              Client.publish client ~node:config.node (Rng.float rng 10.0)
            with
            | Ok _ -> Ok ()
            | Error err -> Error err);
      incr i
    done;
    let elapsed = since_start () in
    let retries = Client.retries_used client in
    let trace_id = Client.last_trace_id client in
    Client.close client;
    (match !fatal with
    | Some err -> Error err
    | None ->
      Ok
        {
          requests = config.requests;
          decisions = !decisions;
          remote_errors = !remote_errors;
          retries;
          elapsed_seconds = elapsed;
          mean_ns = Histogram.mean latency;
          p50_ns = Histogram.quantile latency 0.5;
          p95_ns = Histogram.quantile latency 0.95;
          p99_ns = Histogram.quantile latency 0.99;
          throughput_rps =
            (if elapsed > 0.0 then float_of_int config.requests /. elapsed
             else 0.0);
          trace_id;
          offered_rps =
            (match config.open_loop with
            | None -> None
            | Some _ ->
              Some
                (if !next_at > 0.0 then float_of_int config.requests /. !next_at
                 else 0.0));
          max_lag_ms =
            (match config.open_loop with
            | None -> None
            | Some _ -> Some (!max_lag *. 1e3));
        })

let render r =
  String.concat "\n"
    [
      Printf.sprintf "request frames:    %d (%.0f/s)" r.requests
        r.throughput_rps;
      Printf.sprintf "decision requests: %d" r.decisions;
      Printf.sprintf "remote errors:     %d" r.remote_errors;
      Printf.sprintf "retries:           %d" r.retries;
      "retries exhausted: 0";
      Printf.sprintf "latency ns:        mean=%.0f p50=%.0f p95=%.0f p99=%.0f"
        r.mean_ns r.p50_ns r.p95_ns r.p99_ns;
      Printf.sprintf "elapsed:           %.3fs" r.elapsed_seconds;
      "";
    ]
  ^ (match (r.offered_rps, r.max_lag_ms) with
    (* only present in open-loop mode, so closed-loop output stays
       byte-identical *)
    | Some offered, Some lag ->
      Printf.sprintf "open loop:         offered=%.0f/s max lag=%.1fms\n"
        offered lag
    | _ -> "")
  ^
  (* greppable by the CI trace-stitch assertion; only present with
     propagation on, so existing output stays byte-identical *)
  match r.trace_id with
  | None -> ""
  | Some id -> Printf.sprintf "sample trace id:   %s\n" id
