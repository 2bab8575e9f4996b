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
                                                    across --jobs) *)

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
  List.map
    (fun live ->
      let env = make_env live in
      Test.make
        ~name:(Printf.sprintf "alg1 decision (%d live tags)" live)
        (Staged.stage (fun () ->
             ignore (Mitos.Decision.alg1 params env subject))))
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
  [
    Test.make ~name:"alg2 (8 candidates, space 4)"
      (Staged.stage (fun () ->
           ignore (Mitos.Decision.alg2 params env ~space:4 candidates)));
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
     the disabled row pays only the decision-context check, the enabled row
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
             Mitos_dift.Engine.instrument ~audit engine Mitos_obs.Obs.disabled
           end;
           Mitos_dift.Engine.attach_shadow engine
             ~mem_size:(Mitos_replay.Trace.mem_size trace);
           Array.iter (Mitos_dift.Engine.process_record engine) slice))
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

(* -- entry point ------------------------------------------------------- *)

let usage =
  "usage: main.exe [quick|micro|obs|report [PATH]] [--jobs N] [--shards N]"

(* The value of --jobs or --shards: an integer, raised to at least 1. A
   value that is not an integer is a usage error. *)
let count_arg flag value =
  match int_of_string_opt value with
  | Some n -> max 1 n
  | None ->
    Printf.eprintf "main.exe: %s expects an integer, got %S\n%s\n" flag value
      usage;
    exit 2

let () =
  (* argv: [mode] [report-path] with --jobs N / --shards N anywhere
     after the exe *)
  let jobs = ref (Pool.default_jobs ()) in
  let shards = ref 1 in
  let positional = ref [] in
  let rec parse i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "--jobs" when i + 1 < Array.length Sys.argv ->
        jobs := count_arg "--jobs" Sys.argv.(i + 1);
        parse (i + 2)
      | "--shards" when i + 1 < Array.length Sys.argv ->
        shards := count_arg "--shards" Sys.argv.(i + 1);
        parse (i + 2)
      | arg ->
        (match String.index_opt arg '=' with
        | Some eq when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
          jobs :=
            count_arg "--jobs"
              (String.sub arg (eq + 1) (String.length arg - eq - 1))
        | Some eq
          when String.length arg > 9 && String.sub arg 0 9 = "--shards=" ->
          shards :=
            count_arg "--shards"
              (String.sub arg (eq + 1) (String.length arg - eq - 1))
        | _ -> positional := arg :: !positional);
        parse (i + 1))
    end
  in
  parse 1;
  (* every shadow store built by the experiments below inherits this
     process default; for a fixed shard count the experiment output
     stays byte-identical across --jobs *)
  Shadow.set_default_shards !shards;
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
  | "all" ->
    with_jobs (fun ~pool -> run_experiments ~pool ());
    E.Report.print (E.Obs_overhead.run ());
    run_micro ()
  | unknown ->
    Printf.eprintf "main.exe: unknown mode %S\n%s\n" unknown usage;
    exit 2);
  print_newline ()
