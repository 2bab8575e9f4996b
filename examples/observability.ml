(* Observability: tracing and metrics over a replayed execution.

   Records the netbench workload once, replays it under the MITOS
   policy with an enabled observability context, and prints what the
   instrumentation saw: the Prometheus metrics text (decision-latency
   histogram, per-type IFP verdicts, replay throughput) and the first
   lines of the Chrome trace JSON. The context uses the logical clock,
   so rerunning this example produces byte-identical output — the same
   determinism contract `mitos-cli replay --trace-out --metrics-out`
   relies on.

   Run with: dune exec examples/observability.exe *)

module W = Mitos_workload
module Obs = Mitos_obs.Obs

let () =
  let params =
    Mitos.Params.make ~alpha:1.5 ~beta:2.0 ~tau:0.1 ~tau_scale:5e4
      ~total_tag_space:(1 lsl 30) ~mem_capacity:Mitos_system.Layout.mem_size ()
  in
  (* Record once... *)
  let trace = W.Workload.record (W.Netbench.build ~seed:1 ~chunks:2 ()) in
  (* ...then replay instrumented. One [~obs] argument wires the whole
     stack: engine latency histogram and IFP counters, run-level
     taint gauges, Alg. 1/Alg. 2 timing inside the policy, and the
     replay driver's spans and throughput gauges. *)
  let obs = Obs.create () in
  let engine =
    W.Workload.replay ~obs ~sample_every:256
      ~policy:(Mitos_dift.Policies.mitos params)
      (W.Netbench.build ~seed:1 ~chunks:2 ())
      trace
  in

  let counters = Mitos_dift.Engine.counters engine in
  Printf.printf "replayed %d records (%d IFP propagated, %d blocked)\n\n"
    counters.Mitos_dift.Engine.steps
    counters.Mitos_dift.Engine.ifp_propagated
    counters.Mitos_dift.Engine.ifp_blocked;

  print_endline "=== Prometheus exposition (what --metrics-out writes) ===";
  print_string (Obs.prometheus obs);

  print_endline "\n=== Chrome trace (what --trace-out writes) ===";
  let json = Obs.chrome_trace_json obs in
  let lines = String.split_on_char '\n' json in
  List.iteri
    (fun i l -> if i < 1 then print_endline l)
    lines;
  Printf.printf
    "(%d bytes total - load the file written by --trace-out into\n\
     chrome://tracing or https://ui.perfetto.dev)\n"
    (String.length json);

  (* The same data, queryable in-process. *)
  let reg = Obs.registry obs in
  let latency =
    Mitos_obs.Registry.histogram reg "mitos_engine_record_latency_ticks"
  in
  Printf.printf
    "\nrecord latency (logical ticks = clock reads per record):\n\
    \  p50 %.1f   p99 %.1f   max %.0f\n"
    (Mitos_obs.Histogram.quantile latency 0.5)
    (Mitos_obs.Histogram.quantile latency 0.99)
    (Mitos_obs.Histogram.max_value latency)
