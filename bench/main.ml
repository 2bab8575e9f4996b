(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (printed as console tables), then runs
   bechamel microbenchmarks for the systems claims (O(1) decision
   cost, Alg. 2 batch cost, shadow-memory and engine throughput).
   The microbenchmark table is a report, not a gate: the perf gate
   compares bench/perf runs (see `mitos-cli bench compare`).

   Usage:
     dune exec bench/main.exe                    -- everything
     dune exec bench/main.exe -- quick           -- deterministic experiments
     dune exec bench/main.exe -- micro           -- microbenchmark table only
     dune exec bench/main.exe -- obs             -- observability overhead only
                                                    (the 5% obs contract)
     dune exec bench/main.exe -- report [PATH]   -- markdown report
     dune exec bench/main.exe -- MODE --jobs N   -- run experiments on an
                                                    N-domain pool (output is
                                                    byte-identical to --jobs 1)
     dune exec bench/main.exe -- MODE --shards N -- shard the shadow stores
                                                    N ways (for a fixed N,
                                                    output is byte-identical
                                                    across --jobs)
     dune exec bench/main.exe -- MODE --listen HOST:PORT
                                                 -- expose /metrics, /healthz,
                                                    /snapshot.json, /tracez and
                                                    /auditz (from a netbench
                                                    telemetry pilot) for the
                                                    duration of the run *)

open Bechamel
open Toolkit
module E = Mitos_experiments
module Pool = Mitos_parallel.Pool
open Mitos_tag

(* -- paper experiments ------------------------------------------------ *)

(* Every section here prints only deterministic quantities (no wall
   clocks), so `quick` output diffs clean across runs and across
   --jobs settings. Obs_overhead measures timing overheads and is
   inherently nondeterministic; it runs in `all`/`obs`/`report`. *)
let deterministic_sections ?pool () =
  let recorded = E.Fig7.record_netbench () in
  [
    E.Fig3.run ?pool (); E.Fig7.run ~recorded ?pool ();
    E.Fig8.run ~recorded ?pool (); E.Fig9.run ~recorded ?pool ();
    E.Table2.run ?pool (); E.Latency.run ?pool (); E.Exfil_study.run ();
    E.Hw_model.run (); E.Validation.run ?pool ();
  ]
  @ E.Ablations.run_all ?pool ()

let all_sections ?pool () =
  deterministic_sections ?pool () @ [ E.Obs_overhead.run () ]

let run_experiments ?pool () =
  List.iter E.Report.print (deterministic_sections ?pool ())

let write_markdown ?pool path =
  let sections = all_sections ?pool () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# MITOS reproduction - generated experiment report\n\n";
      List.iter
        (fun section -> output_string oc (E.Report.to_markdown section))
        sections);
  Printf.printf "wrote %s (%d sections)\n" path (List.length sections)

(* -- microbenchmarks --------------------------------------------------- *)

let net i = Tag.make Tag_type.Network i

let params =
  Mitos.Params.make ~total_tag_space:(1 lsl 30) ~mem_capacity:(1 lsl 20) ()

(* Scalability claim (paper SIV-B properties 2-3): the per-decision
   cost must not depend on the number of live tags in the system. *)
let bench_decision_scaling =
  let make_env live_tags =
    let stats = Tag_stats.create () in
    for i = 1 to live_tags do
      Tag_stats.incr stats (net i)
    done;
    Mitos.Decision.of_stats params stats
  in
  let subject = net 1 in
  let fast = Mitos.Decision.fast params in
  List.concat_map
    (fun live ->
      let env = make_env live in
      [
        Test.make
          ~name:(Printf.sprintf "alg1 decision (%d live tags)" live)
          (Staged.stage (fun () ->
               ignore (Mitos.Decision.alg1 params env subject)));
        Test.make
          ~name:(Printf.sprintf "alg1 fast decision (%d live tags)" live)
          (Staged.stage (fun () ->
               ignore (Mitos.Decision.alg1_fast fast env subject)));
      ])
    [ 10; 1_000; 100_000 ]

let bench_alg2 =
  let stats = Tag_stats.create () in
  List.iter
    (fun i ->
      for _ = 1 to i * 3 do
        Tag_stats.incr stats (net i)
      done)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let env = Mitos.Decision.of_stats params stats in
  let candidates = List.init 8 (fun i -> net (i + 1)) in
  let fast = Mitos.Decision.fast params in
  [
    Test.make ~name:"alg2 (8 candidates, space 4)"
      (Staged.stage (fun () ->
           ignore (Mitos.Decision.alg2 params env ~space:4 candidates)));
    Test.make ~name:"alg2 fast (8 candidates, space 4)"
      (Staged.stage (fun () ->
           ignore (Mitos.Decision.alg2_fast fast env ~space:4 candidates)));
  ]

let bench_shadow =
  let shadow =
    Shadow.create ~mem_capacity:(1 lsl 16) ~num_regs:16 ~m_prov:10 ()
  in
  let counter = ref 0 in
  let full_list =
    let p = Provenance.create 10 in
    for i = 1 to 10 do
      ignore (Provenance.add p (net i))
    done;
    p
  in
  let next = ref 10 in
  [
    Test.make ~name:"shadow taint+clear byte"
      (Staged.stage (fun () ->
           let addr = !counter land 0xFFFF in
           incr counter;
           ignore (Shadow.add_tag_addr shadow addr (net 1));
           Shadow.clear_addr shadow addr));
    Test.make ~name:"provenance add (full list, fifo)"
      (Staged.stage (fun () ->
           incr next;
           ignore (Provenance.add full_list (net !next))));
  ]

let bench_engine =
  (* replay throughput over a prerecorded trace slice *)
  let built = Mitos_workload.Netbench.build ~seed:1 ~chunks:2 () in
  let trace = Mitos_workload.Workload.record built in
  let records = Mitos_replay.Trace.records trace in
  let slice = Array.sub records 0 (min 1_000 (Array.length records)) in
  let bench_policy name policy =
    Test.make ~name:(Printf.sprintf "engine replay 1k records (%s)" name)
      (Staged.stage (fun () ->
           let engine = Mitos_workload.Workload.engine_of ~policy built in
           Mitos_dift.Engine.attach_shadow engine
             ~mem_size:(Mitos_replay.Trace.mem_size trace);
           Array.iter (Mitos_dift.Engine.process_record engine) slice))
  in
  let bench_backend name backend =
    Test.make
      ~name:(Printf.sprintf "engine replay 1k records (%s shadow)" name)
      (Staged.stage (fun () ->
           let config =
             { Mitos_dift.Engine.default_config with shadow_backend = backend }
           in
           let engine =
             Mitos_workload.Workload.engine_of ~config
               ~policy:Mitos_dift.Policies.propagate_all built
           in
           Mitos_dift.Engine.attach_shadow engine
             ~mem_size:(Mitos_replay.Trace.mem_size trace);
           Array.iter (Mitos_dift.Engine.process_record engine) slice))
  in
  let bench_instrumented name make_obs =
    Test.make ~name:(Printf.sprintf "engine replay 1k records (%s)" name)
      (Staged.stage (fun () ->
           let engine =
             Mitos_workload.Workload.engine_of
               ~policy:Mitos_dift.Policies.propagate_all built
           in
           Mitos_dift.Engine.instrument engine (make_obs ());
           Mitos_dift.Engine.attach_shadow engine
             ~mem_size:(Mitos_replay.Trace.mem_size trace);
           Array.iter (Mitos_dift.Engine.process_record engine) slice))
  in
  (* audit flight-recorder cost on the decision-heavy mitos replay:
     the disabled row pays only the probe check, the enabled row
     records every Alg. 1/2 call plus evictions into the ring *)
  let bench_audit name enabled =
    Test.make ~name:(Printf.sprintf "engine replay 1k records (%s)" name)
      (Staged.stage (fun () ->
           let engine =
             Mitos_workload.Workload.engine_of
               ~policy:
                 (Mitos_dift.Policies.mitos (E.Calib.sensitivity_params ()))
               built
           in
           if enabled then begin
             let audit = Mitos_obs.Audit.create ~capacity:(1 lsl 18) () in
             Mitos.Decision.set_audit (Some audit);
             Mitos_dift.Engine.instrument ~audit engine Mitos_obs.Obs.disabled
           end;
           Mitos_dift.Engine.attach_shadow engine
             ~mem_size:(Mitos_replay.Trace.mem_size trace);
           Array.iter (Mitos_dift.Engine.process_record engine) slice;
           if enabled then Mitos.Decision.set_audit None))
  in
  [
    bench_policy "faros" Mitos_dift.Policies.faros;
    bench_policy "propagate-all" Mitos_dift.Policies.propagate_all;
    bench_policy "mitos"
      (Mitos_dift.Policies.mitos (E.Calib.sensitivity_params ()));
    bench_backend "hashed" Shadow.Hashed;
    bench_backend "paged" Shadow.Paged;
    bench_instrumented "obs no-op sink" (fun () -> Mitos_obs.Obs.disabled);
    bench_instrumented "obs enabled" (fun () ->
        Mitos_obs.Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) ());
    bench_audit "mitos, audit disabled" false;
    bench_audit "mitos, audit enabled" true;
  ]

let bench_solvers =
  let items =
    Array.of_list
      (List.map
         (fun ty -> Mitos.Solver.item params ty)
         [ Tag_type.Network; Tag_type.File; Tag_type.Process ])
  in
  [
    Test.make ~name:"solver KKT (3 items)"
      (Staged.stage (fun () -> ignore (Mitos.Solver.solve_kkt params items)));
    Test.make ~name:"solver B&B exact (3 items)"
      (Staged.stage
         (let p =
            Mitos.Params.make ~tau:1.0 ~tau_scale:1.0 ~total_tag_space:10_000
              ~mem_capacity:1_000 ()
          in
          let small =
            Array.of_list
              (List.map
                 (fun ty -> Mitos.Solver.item p ty)
                 [ Tag_type.Network; Tag_type.File; Tag_type.Process ])
          in
          fun () -> ignore (Mitos.Solver.solve_branch_and_bound p small)));
    Test.make ~name:"analysis crossover"
      (Staged.stage (fun () ->
           ignore
             (Mitos.Analysis.crossover_count params Tag_type.Network
                ~pollution:5000.0)));
  ]

let bench_infra =
  let prog =
    (Mitos_workload.Crypto.build ~input_len:64 ~seed:1 ()).Mitos_workload.Workload.program
  in
  let trace =
    Mitos_workload.Workload.record (Mitos_workload.Crypto.build ~input_len:64 ~seed:1 ())
  in
  let encoded = Mitos_replay.Trace.to_string trace in
  [
    Test.make ~name:"postdominators (crypto program)"
      (Staged.stage (fun () -> ignore (Mitos_flow.Postdom.compute prog)));
    Test.make ~name:"trace decode (crypto)"
      (Staged.stage (fun () -> ignore (Mitos_replay.Trace.of_string encoded)));
  ]

let all_micro =
  Test.make_grouped ~name:"mitos"
    (bench_decision_scaling @ bench_alg2 @ bench_shadow @ bench_engine
    @ bench_solvers @ bench_infra)

let run_micro () =
  print_endline "\n=== Microbenchmarks (bechamel) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances all_micro in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

(* -- live telemetry (--listen) ----------------------------------------- *)

(* A long `bench` run is exactly the kind of invocation an operator
   wants to scrape: with --listen we replay the netbench telemetry
   pilot once (so the registry, SLO engine and audit ring hold
   real data) and keep the exposition server up for the duration of
   the benchmark modes. The server lives on its own domain and the
   benchmark loops never touch it, so timings are unaffected. *)
let start_telemetry = function
  | None -> None
  | Some hostport ->
    let host, port =
      match Mitos_obs.Server.parse_url hostport with
      | Ok (host, port, _path) -> (host, port)
      | Error msg ->
        prerr_endline ("bench: --listen: " ^ msg);
        exit 2
    in
    let p =
      E.Telemetry.pilot
        ~build:(fun () -> Mitos_workload.Netbench.build ~seed:42 ())
        ()
    in
    p.E.Telemetry.replay ();
    let server =
      Mitos_obs.Server.start ~host ~port (E.Telemetry.routes p.E.Telemetry.src)
    in
    Printf.printf "serving telemetry on http://%s/\n%!"
      (Mitos_obs.Server.addr server);
    Some server

(* -- entry point ------------------------------------------------------- *)

let () =
  (* argv: [mode] [report-path] with --jobs N / --listen HOST:PORT
     anywhere after the exe *)
  let jobs = ref (Pool.default_jobs ()) in
  let shards = ref 1 in
  let listen = ref None in
  let positional = ref [] in
  let rec parse i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "--jobs" when i + 1 < Array.length Sys.argv ->
        jobs := max 1 (int_of_string Sys.argv.(i + 1));
        parse (i + 2)
      | "--shards" when i + 1 < Array.length Sys.argv ->
        shards := max 1 (int_of_string Sys.argv.(i + 1));
        parse (i + 2)
      | "--listen" when i + 1 < Array.length Sys.argv ->
        listen := Some Sys.argv.(i + 1);
        parse (i + 2)
      | arg ->
        (match String.index_opt arg '=' with
        | Some eq when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
          jobs :=
            max 1
              (int_of_string
                 (String.sub arg (eq + 1) (String.length arg - eq - 1)))
        | Some eq
          when String.length arg > 9 && String.sub arg 0 9 = "--shards=" ->
          shards :=
            max 1
              (int_of_string
                 (String.sub arg (eq + 1) (String.length arg - eq - 1)))
        | Some eq
          when String.length arg > 9 && String.sub arg 0 9 = "--listen=" ->
          listen :=
            Some (String.sub arg (eq + 1) (String.length arg - eq - 1))
        | _ -> positional := arg :: !positional);
        parse (i + 1))
    end
  in
  parse 1;
  (* every shadow store built by the experiments below inherits this
     process default; for a fixed shard count the experiment output
     stays byte-identical across --jobs *)
  Shadow.set_default_shards !shards;
  let server = start_telemetry !listen in
  let mode, rest =
    match List.rev !positional with
    | [] -> ("all", [])
    | mode :: rest -> (mode, rest)
  in
  let with_jobs f = Pool.with_pool ~jobs:!jobs (fun pool -> f ~pool) in
  (match mode with
  | "quick" -> with_jobs (fun ~pool -> run_experiments ~pool ())
  | "micro" -> run_micro ()
  | "obs" -> E.Report.print (E.Obs_overhead.run ())
  | "report" ->
    with_jobs (fun ~pool ->
        write_markdown ~pool
          (match rest with path :: _ -> path | [] -> "bench_report.md"))
  | _ ->
    with_jobs (fun ~pool -> run_experiments ~pool ());
    E.Report.print (E.Obs_overhead.run ());
    run_micro ());
  Option.iter Mitos_obs.Server.stop server;
  print_newline ()
