(* mitos-cli: drive the MITOS reproduction from the shell. `mitos-cli
   --help` lists the commands; `mitos-cli COMMAND --help` documents
   one. *)

open Cmdliner
open Mitos_dift
module W = Mitos_workload
module Calib = Mitos_experiments.Calib

(* -- shared arguments -------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let tau_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "tau" ] ~docv:"TAU"
        ~doc:"Under/over-tainting trade-off weight (paper's tau).")

let alpha_arg =
  Arg.(
    value
    & opt float 1.5
    & info [ "alpha" ] ~docv:"ALPHA" ~doc:"Fairness degree (paper's alpha).")

let u_net_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "u-net" ] ~docv:"W"
        ~doc:"Undertainting weight of netflow tags (paper's u_netflow).")

let u_export_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "u-export" ] ~docv:"W"
        ~doc:
          "Undertainting weight of export-table tags (Table II uses \
           --u-net 50 --u-export 50 --tau 0.01).")

let policy_names =
  [ "faros"; "propagate-all"; "block-all"; "minos"; "probabilistic";
    "threshold"; "mitos"; "mitos-all-flows" ]

let policy_arg =
  Arg.(
    value
    & opt string "mitos"
    & info [ "policy"; "p" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf "Propagation policy: one of %s."
             (String.concat ", " policy_names)))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("mitos-cli: " ^ msg);
    exit 2

(* [arg] whose value must pass [ok]; a value that fails is the
   one-line error [msg], exit 2. *)
let checked ok msg arg =
  Term.(
    const (fun v ->
        if not (ok v) then or_die (Error msg);
        v)
    $ arg)

(* The flags that set [Params] fields, by the field name that starts
   a [Params] error. *)
let param_flags =
  [ ("tau", "--tau"); ("alpha", "--alpha");
    ("u weight of network", "--u-net");
    ("u weight of export-table", "--u-export") ]

(* [Params] rejects an out-of-range value with [Invalid_argument];
   from the command line that is a one-line error naming the flag,
   exit 2. *)
let checked_params make =
  match make () with
  | params -> params
  | exception Invalid_argument msg ->
    let msg =
      match String.index_opt msg ':' with
      | Some i -> String.trim (String.sub msg (i + 1) (String.length msg - i - 1))
      | None -> msg
    in
    let named (field, _) = String.starts_with ~prefix:(field ^ " ") msg in
    let msg =
      match List.find_opt named param_flags with
      | Some (field, flag) ->
        flag ^ String.sub msg (String.length field)
          (String.length msg - String.length field)
      | None -> msg
    in
    or_die (Error msg)

let make_params ~tau ~alpha ~u_net ~u_export =
  Mitos.Params.with_u
    (Calib.sensitivity_params ~tau ~alpha ~u_net ())
    Mitos_tag.Tag_type.Export_table u_export

(* --tau --alpha --u-net --u-export as one checked parameter set. *)
let params_term =
  let make tau alpha u_net u_export =
    checked_params (fun () -> make_params ~tau ~alpha ~u_net ~u_export)
  in
  Term.(const make $ tau_arg $ alpha_arg $ u_net_arg $ u_export_arg)

let resolve_policy name params =
  match name with
  | "faros" -> Ok (Policies.faros, false)
  | "propagate-all" -> Ok (Policies.propagate_all, false)
  | "block-all" -> Ok (Policies.block_all, false)
  | "minos" -> Ok (Policies.minos_width, false)
  | "probabilistic" -> Ok (Policies.probabilistic ~seed:1 ~p:0.5, false)
  | "threshold" -> Ok (Policies.pollution_threshold ~limit:20_000, false)
  | "mitos" -> Ok (Policies.mitos params, false)
  | "mitos-all-flows" -> Ok (Calib.mitos_all_flows params, true)
  | other -> Error (Printf.sprintf "unknown policy %S" other)

(* -p under the checked parameters: the policy and whether direct flows
   are routed through it. Every command that takes both resolves the
   policy before it builds a workload, so a bad policy is reported
   first. *)
let policy_term =
  Term.(
    const (fun name params -> or_die (resolve_policy name params))
    $ policy_arg $ params_term)

let engine_config ~route_direct =
  if route_direct then Calib.attack_engine_config else Engine.default_config

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see `mitos-cli list').")

let find_workload name =
  match W.Registry.find name with
  | entry -> Ok entry
  | exception Not_found ->
    Error (Printf.sprintf "unknown workload %S; run `mitos-cli list'" name)

let build_workload name ~seed =
  Result.map (fun entry -> entry.W.Registry.build ~seed) (find_workload name)

(* WORKLOAD and --seed as a built workload. *)
let built_term =
  Term.(
    const (fun name seed -> or_die (build_workload name ~seed))
    $ workload_arg $ seed_arg)

(* The live engine of [built] under a resolved policy, attached to the
   workload's machine; [setup] runs before the attach. *)
let live_engine ?(setup = ignore) (policy, route_direct) built =
  let engine =
    W.Workload.engine_of ~config:(engine_config ~route_direct) ~policy built
  in
  setup engine;
  Engine.attach engine (W.Workload.machine_of built);
  engine

(* Every command runs through this: an expected failure (a file that
   cannot be read, foreign input that does not parse, a server that
   does not answer) becomes a one-line error and exit code 2. Anything
   else is a bug, reported as Cmdliner reports one. *)
let protected f =
  try f () with
  | Sys_error msg | Failure msg -> or_die (Error msg)
  | Mitos_util.Codec.Malformed msg ->
    or_die (Error ("malformed trace: " ^ msg))
  | Unix.Unix_error (err, fn, arg) ->
    or_die
      (Error
         (Printf.sprintf "%s%s: %s" fn
            (if arg = "" then "" else " " ^ arg)
            (Unix.error_message err)))
  | e ->
    prerr_endline
      ("mitos-cli: internal error, uncaught exception:\n"
      ^ Printexc.to_string e);
    exit Cmd.Exit.internal_error

(* -- parallelism -------------------------------------------------------- *)

module Pool = Mitos_parallel.Pool

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Experiment worker domains (0 = all cores). Output is \
           byte-identical for every setting.")

let with_jobs jobs f =
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  Pool.with_pool ~jobs (fun pool -> f ~pool)

(* -- observability ------------------------------------------------------ *)

module Obs = Mitos_obs.Obs

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run to $(docv) (load it \
           in chrome://tracing or ui.perfetto.dev).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write Prometheus text metrics of the run to $(docv).")

let sample_every_term =
  checked (fun n -> n >= 1) "--sample-every must be at least 1"
    Arg.(
      value
      & opt int 1024
      & info [ "sample-every" ] ~docv:"N"
          ~doc:"Observability sampling period, in processed records.")

let obs_clock_arg =
  Arg.(
    value
    & opt string "logical"
    & info [ "obs-clock" ] ~docv:"CLOCK"
        ~doc:
          "Observability clock: 'logical' (deterministic ticks; exports \
           are byte-identical across runs with the same seed) or 'real' \
           (wall-clock microseconds).")

type obs_opts = {
  trace_out : string option;
  metrics_out : string option;
  sample_every : int;
  obs : Obs.t option;
}

(* An Obs context is created only when an export was asked for. *)
let setup_obs trace_out metrics_out sample_every clock_name =
  let obs =
    if trace_out = None && metrics_out = None then None
    else begin
      let clock =
        match clock_name with
        | "logical" -> Mitos_obs.Obs_clock.logical ()
        | "real" -> Mitos_obs.Obs_clock.real ()
        | other ->
          or_die
            (Error
               (Printf.sprintf "unknown --obs-clock %S (logical or real)"
                  other))
      in
      Some (Obs.create ~clock ())
    end
  in
  { trace_out; metrics_out; sample_every; obs }

let obs_term =
  Term.(
    const setup_obs $ trace_out_arg $ metrics_out_arg $ sample_every_term
    $ obs_clock_arg)

let instrument_engine opts engine =
  match opts.obs with
  | None -> ()
  | Some obs ->
    Engine.instrument ~sample_every:opts.sample_every engine obs;
    Metrics.attach_sampler ~sample_every:opts.sample_every
      ~registry:(Obs.registry obs) engine

let write_out what path contents =
  Obs.write_file path contents;
  Printf.printf "wrote %s to %s\n" what path

let finish_obs opts =
  match opts.obs with
  | None -> ()
  | Some obs ->
    Option.iter
      (fun path -> write_out "Chrome trace" path (Obs.chrome_trace_json obs))
      opts.trace_out;
    Option.iter
      (fun path -> write_out "Prometheus metrics" path (Obs.prometheus obs))
      opts.metrics_out

(* -- live telemetry ------------------------------------------------------ *)

module Server = Mitos_obs.Server
module Alerts = Mitos_obs.Alerts
module Tsdb = Mitos_obs.Tsdb
module Tele = Mitos_experiments.Telemetry

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve live telemetry on $(docv) while the command runs: GET \
           /metrics (Prometheus), /healthz (SLO verdict; non-200 on \
           breach), /snapshot.json, /tracez, /auditz. Port 0 picks a free \
           port (the bound address is printed). The process keeps serving \
           after the work completes; interrupt (Ctrl-C) to exit.")

let slo_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "slo" ] ~docv:"RULE"
        ~doc:
          "Add a threshold SLO rule, grammar [NAME:]SIGNAL(<=|<|>=|>)BOUND \
           — e.g. over_taint_ratio<=0.9 or p99:decision_p99_ticks<=64. \
           Repeatable; added to the default rule set.")

let burn_slo_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "burn-slo" ] ~docv:"RULE"
        ~doc:
          "Add a multi-window burn-rate alert rule, grammar \
           [NAME:]SIGNAL(<=|<|>=|>)OBJECTIVE[;budget=B][;windows=FAST/\
           SLOW@BURN[@page|ticket],...][;for=D][;keep=K] — e.g. \
           p99:decision_p99_ns<=5e6;budget=0.05;windows=30/120@4@page;\
           for=5;keep=30. Repeatable; enables the /alerts, /query and \
           /alertz endpoints and folds firing alerts into /healthz.")

(* The rule list of one SLO engine: [defaults], then the --slo
   threshold rules, then the --burn-slo rules. *)
let parse_rules ?(defaults = Tele.default_rules) ?(burn = []) slo =
  defaults
  @ List.map (fun s -> or_die (Alerts.parse_threshold s)) slo
  @ List.map (fun s -> or_die (Alerts.parse_rule s)) burn

let start_server ~listen routes =
  Option.map
    (fun spec ->
      let host, port, _path = or_die (Server.parse_url spec) in
      let server = Server.start ~host ~port routes in
      Printf.printf "serving telemetry on http://%s/\n%!" (Server.addr server);
      server)
    listen

(* Interruptible idle loop. SIGINT/SIGTERM set a flag instead of
   killing the process, so servers stop cleanly (listening sockets
   closed, domains joined) and a /metrics scraper sees a final flush
   rather than a dropped connection. [tick] runs about once a second
   while lingering — used for runtime telemetry sampling and SLO
   observations on live servers. *)
let shutdown_requested = Atomic.make false

let install_shutdown_handlers () =
  let request _signum = Atomic.set shutdown_requested true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle request)
  with Invalid_argument _ | Sys_error _ -> ()

(* Sleep about [seconds] in 0.2 s steps; a shutdown request cuts it
   short. *)
let nap seconds =
  let slept = ref 0.0 in
  while !slept < seconds && not (Atomic.get shutdown_requested) do
    (try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ());
    slept := !slept +. 0.2
  done

let linger ?(tick = ignore) () =
  install_shutdown_handlers ();
  while not (Atomic.get shutdown_requested) do
    nap 1.0;
    if not (Atomic.get shutdown_requested) then tick ()
  done;
  print_endline "shutting down"

let finish_server ?tick = function
  | None -> ()
  | Some server ->
    print_endline
      "telemetry still serving; interrupt (Ctrl-C or SIGTERM) to exit";
    linger ?tick ();
    Server.stop server

(* The telemetry pilot (record + oracle-policy sweep + audited MITOS
   replay), so every decision/shadow/audit metric family is populated
   and a health verdict exists. The server, when [listen] asks for
   one, comes up before the replay so a scrape sees it run. *)
let run_pilot ?params ?window ?sample_every ~pool ~listen ~slo
    ?(build = fun () -> or_die (build_workload "netbench" ~seed:42)) () =
  let p =
    Tele.pilot ?params ~rules:(parse_rules slo) ?window ?sample_every ~pool
      ~build ()
  in
  let routes = Tele.routes p.Tele.src in
  let server = start_server ~listen routes in
  p.Tele.replay ();
  (p, routes, server)

(* -- list ---------------------------------------------------------------- *)

let experiments =
  [
    ("fig3", "cost function shapes");
    ("fig7", "marginal costs and decisions over time (tau sweep)");
    ("fig8", "alpha vs fairness");
    ("fig9", "u_netflow sweep");
    ("table2", "FAROS vs MITOS on the in-memory attack");
    ("latency", "detection latency (first alarm step) per shell/policy");
    ("exfil", "exfiltration-tracking case study (sink attribution)");
    ("hw", "hardware-offload cost model (paper SVI)");
    ("matrix", "workload x policy propagation-rate matrix (slow)");
    ("conformance", "litmus flow classes x policies table");
    ("ablations", "eviction / recompute / staleness / solution quality");
    ("quick", "a fast deterministic subset (fig3 + conformance + hw)");
    ("all", "fig3 to hw, then ablations (not matrix or conformance)");
  ]

let list_cmd =
  let run () =
    print_endline "Workloads:";
    List.iter
      (fun e ->
        Printf.printf "  %-24s %s\n" e.W.Registry.name e.W.Registry.summary)
      W.Registry.all;
    print_endline "\nExperiments:";
    List.iter (fun (id, doc) -> Printf.printf "  %-24s %s\n" id doc) experiments;
    print_endline "\nPolicies:";
    Printf.printf "  %s\n" (String.concat ", " policy_names)
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, experiments and policies.")
    Term.(const run $ const ())

(* -- run ------------------------------------------------------------------- *)

let print_summary s =
  let t = Mitos_util.Table.create ~header:Metrics.header () in
  Mitos_util.Table.add_row t (Metrics.row s);
  Mitos_util.Table.print t;
  Printf.printf "wall time: %.3fs\n" s.Metrics.wall_seconds

let run_cmd =
  let run obs_opts policy built =
    let engine =
      live_engine ~setup:(instrument_engine obs_opts) policy built
    in
    print_summary (Metrics.measure_run engine);
    finish_obs obs_opts
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a workload under a propagation policy.")
    Term.(const run $ obs_term $ policy_term $ built_term)

(* -- experiment --------------------------------------------------------------- *)

(* [attack] is [experiment table2] without --shards. *)
let run_experiment id jobs shards listen slo =
  let module E = Mitos_experiments in
  if shards < 1 then or_die (Error "--shards must be at least 1");
  (* every shadow store the experiments build inherits this process
     default; for a fixed shard count the report is byte-identical
     across --jobs *)
  Mitos_tag.Shadow.set_default_shards shards;
  with_jobs jobs (fun ~pool ->
      (* Telemetry first: populate every metric family with the pilot
         and bring the server up before the sections run, so a scrape
         mid-experiment sees live data. *)
      let tele =
        Option.map (fun _ -> run_pilot ~pool ~listen ~slo ()) listen
      in
      let pool = Some pool in
      (* Sections are thunks so [--listen] progress is real: the
         sections-done gauge moves between sections, not after all
         of them. Each thunk yields the reports it printed. *)
      let sections : (unit -> E.Report.section list) list =
        let one f = [ (fun () -> [ f () ]) ] in
        match id with
        | "fig3" -> one (fun () -> E.Fig3.run ?pool ())
        | "fig7" -> one (fun () -> E.Fig7.run ?pool ())
        | "fig8" -> one (fun () -> E.Fig8.run ?pool ())
        | "fig9" -> one (fun () -> E.Fig9.run ?pool ())
        | "table2" -> one (fun () -> E.Table2.run ?pool ())
        | "latency" -> one (fun () -> E.Latency.run ?pool ())
        | "exfil" -> one (fun () -> E.Exfil_study.run ())
        | "hw" -> one (fun () -> E.Hw_model.run ())
        | "matrix" -> one (fun () -> E.Matrix.run ?pool ())
        | "conformance" -> one (fun () -> E.Validation.run ?pool ())
        | "ablations" -> [ (fun () -> E.Ablations.run_all ?pool ()) ]
        | "quick" ->
          [
            (fun () -> [ E.Fig3.run ?pool () ]);
            (fun () -> [ E.Validation.run ?pool () ]);
            (fun () -> [ E.Hw_model.run () ]);
          ]
        | "all" ->
          let recorded = lazy (E.Fig7.record_netbench ()) in
          [
            (fun () -> [ E.Fig3.run ?pool () ]);
            (fun () ->
              [ E.Fig7.run ~recorded:(Lazy.force recorded) ?pool () ]);
            (fun () ->
              [ E.Fig8.run ~recorded:(Lazy.force recorded) ?pool () ]);
            (fun () ->
              [ E.Fig9.run ~recorded:(Lazy.force recorded) ?pool () ]);
            (fun () -> [ E.Table2.run ?pool () ]);
            (fun () -> [ E.Latency.run ?pool () ]);
            (fun () -> [ E.Exfil_study.run () ]);
            (fun () -> [ E.Hw_model.run () ]);
            (fun () -> E.Ablations.run_all ?pool ());
          ]
        | other -> or_die (Error (Printf.sprintf "unknown experiment %S" other))
      in
      let sections_done =
        Option.map
          (fun (p, _, _) ->
            Mitos_obs.Registry.gauge
              (Obs.registry p.Tele.src.Tele.obs)
              ~help:"experiment sections completed" "mitos_cli_sections_done")
          tele
      in
      List.iter
        (fun thunk ->
          List.iter E.Report.print (thunk ());
          Option.iter
            (fun g ->
              Mitos_obs.Registry.set_gauge g
                (Mitos_obs.Registry.gauge_value g +. 1.0))
            sections_done)
        sections;
      Option.iter (fun (_, _, server) -> finish_server server) tele)

let experiment_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (see `mitos-cli list').")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a figure or table of the paper.")
    Term.(
      const run_experiment $ id_arg $ jobs_arg
      $ Arg.(
          value
          & opt int 1
          & info [ "shards" ] ~docv:"N"
              ~doc:
                "Shadow-store shards for every engine the experiments \
                 build (1 = unsharded). Output is byte-identical across \
                 --jobs for a fixed N.")
      $ listen_arg $ slo_arg)

(* -- record / replay -------------------------------------------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"FILE" ~doc:"Trace file path.")

let record_cmd =
  let run built file =
    let trace = W.Workload.record built in
    Mitos_replay.Trace.save trace file;
    Printf.printf "recorded %d instructions of %s to %s\n"
      (Mitos_replay.Trace.length trace)
      built.W.Workload.name file
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Record a workload execution trace to a file (the PANDA step).")
    Term.(const run $ built_term $ file_arg)

let replay_cmd =
  let run obs_opts (policy, route_direct) built file listen slo =
    let trace = Mitos_replay.Trace.load file in
    (* With --listen the replay itself is the telemetry source: force
       an obs context, wire an SLO engine into the sampler, and
       bring the server up before the first record is processed. *)
    let obs_opts =
      match (listen, obs_opts.obs) with
      | None, _ | _, Some _ -> obs_opts
      | Some _, None ->
        let obs = Obs.create ~clock:(Mitos_obs.Obs_clock.logical ()) () in
        { obs_opts with obs = Some obs }
    in
    let slo, observe, audit =
      match (listen, obs_opts.obs) with
      | Some _, Some obs ->
        let slo = Alerts.create ~rules:(parse_rules slo) () in
        Alerts.link_tracer slo (Obs.tracer obs);
        let audit = Mitos_obs.Audit.create () in
        let engine_cell = ref None in
        let observe (s : Metrics.sample) =
          Option.iter
            (fun engine ->
              Alerts.observe slo ~at:(float_of_int s.Metrics.at_step)
                (Tele.standard_signals ~obs engine s))
            !engine_cell
        in
        (Some (slo, engine_cell), Some observe, Some audit)
      | _ -> (None, None, None)
    in
    let engine =
      W.Workload.replay_engine
        ~config:(engine_config ~route_direct)
        ?obs:obs_opts.obs ~sample_every:obs_opts.sample_every ?observe ?audit
        ~policy built trace
    in
    Option.iter (fun (_, cell) -> cell := Some engine) slo;
    let server =
      match obs_opts.obs with
      | Some obs when listen <> None ->
        let src =
          Tele.source
            ?slo:(Option.map fst slo)
            ?audit
            ~progress:(fun () -> Engine.progress engine)
            obs
        in
        start_server ~listen (Tele.routes src)
      | _ -> None
    in
    let t0 = Mitos_util.Clock.now_ns () in
    ignore
      (Mitos_replay.Driver.run ?obs:obs_opts.obs trace
         ~f:(Engine.process_record engine));
    let wall_seconds = float_of_int (Mitos_util.Clock.now_ns () - t0) /. 1e9 in
    print_summary (Metrics.of_engine ~wall_seconds engine);
    finish_obs obs_opts;
    finish_server server
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded trace under a policy. The workload (and seed) \
          must match the recording so taint sources resolve identically. \
          With --listen, the replay serves its own live telemetry.")
    Term.(
      const run $ obs_term $ policy_term $ built_term $ file_arg $ listen_arg
      $ slo_arg)

(* -- attack -------------------------------------------------------------------------- *)

let inspect_cmd =
  let run file =
    let trace = Mitos_replay.Trace.load file in
    (match Mitos_replay.Trace.find_meta trace "workload" with
    | Some w -> Printf.printf "workload: %s\n" w
    | None -> ());
    Format.printf "%a" Mitos_replay.Trace_stats.pp
      (Mitos_replay.Trace_stats.analyze trace);
    (match Mitos_replay.Trace_stats.syscall_histogram trace with
    | [] -> ()
    | hist ->
      print_endline "syscalls:";
      List.iter
        (fun (n, count) ->
          Printf.printf "  %-20s %d\n" (Mitos_system.Os.syscall_name n) count)
        hist);
    (match Mitos_replay.Trace_stats.loop_profile trace with
    | [] -> print_endline "loops: none"
    | loops ->
      print_endline "loops (busiest first):";
      List.iter
        (fun (l : Mitos_replay.Trace_stats.loop_info) ->
          Printf.printf
            "  header @%-5d body [%d..%d]  %d iterations, %d instructions\n"
            l.Mitos_replay.Trace_stats.header_pc
            l.Mitos_replay.Trace_stats.first_pc
            l.Mitos_replay.Trace_stats.last_pc
            l.Mitos_replay.Trace_stats.iterations
            l.Mitos_replay.Trace_stats.body_instructions)
        loops)
  in
  let file_pos0 =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file path.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Analyze a recorded trace offline: instruction mix, \
          indirect-flow opportunity counts, hot program points.")
    Term.(const run $ file_pos0)

let disasm_cmd =
  let run built =
    Printf.printf "%s - %s\n\n" built.W.Workload.name
      built.W.Workload.description;
    Format.printf "%a" Mitos_isa.Program.pp built.W.Workload.program
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload's program.")
    Term.(const run $ built_term)

let map_cmd =
  let run policy built =
    let engine =
      live_engine policy built ~setup:(fun engine ->
          Engine.watch_confluence engine Mitos_tag.Tag_type.Network
            Mitos_tag.Tag_type.Export_table)
    in
    ignore (Engine.run engine);
    let module Layout = Mitos_system.Layout in
    print_string
      (Taint_map.render_regions
         ~highlight:(Mitos_tag.Tag_type.Network, Mitos_tag.Tag_type.Export_table)
         [
           ("stack", Layout.stack_base, Layout.stack_size);
           ("process space", Layout.process_base, Layout.process_size);
           ("kernel linking area", Layout.kernel_export_base,
            Layout.kernel_export_size);
           ("heap", Layout.heap_base, Layout.heap_size);
         ]
         (Engine.shadow engine));
    match Engine.first_alert_step engine with
    | Some step -> Printf.printf "\nnetflow+export-table alarm at step %d\n" step
    | None -> print_endline "\nno netflow+export-table confluence"
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:
         "Run a workload and render the taint map of every memory region \
          ('!' marks netflow+export-table bytes).")
    Term.(const run $ policy_term $ built_term)

let why_cmd =
  let run policy_name policy built addr =
    let mem_size = Mitos_system.Layout.mem_size in
    if addr < 0 || addr >= mem_size then
      or_die
        (Error
           (Printf.sprintf "ADDR %d is outside memory [0, %d)" addr mem_size));
    let engine = live_engine ~setup:Engine.record_history policy built in
    ignore (Engine.run engine);
    (match Engine.taint_history engine addr with
    | [] -> Printf.printf "byte %#x never received a tag under %s\n" addr policy_name
    | arrivals ->
      Printf.printf "taint timeline of byte %#x (%s, %s):\n" addr
        (Mitos_system.Layout.region_of addr)
        policy_name;
      List.iter
        (fun a ->
          Printf.printf "  step %-8d %-14s via %s\n" a.Engine.arr_step
            (Mitos_tag.Tag.to_string a.Engine.arr_tag)
            a.Engine.arr_via)
        arrivals);
    let tags = Mitos_tag.Shadow.tags_of_addr (Engine.shadow engine) addr in
    Printf.printf "final provenance list: [%s]\n"
      (String.concat "; " (List.map Mitos_tag.Tag.to_string tags))
  in
  let addr_arg =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"ADDR" ~doc:"Byte address (decimal or 0x-hex).")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Run a workload with taint-history recording and print the full \
          timeline of how one byte became tainted.")
    Term.(const run $ policy_arg $ policy_term $ built_term $ addr_arg)

let trace_cmd =
  let run policy built from count =
    let print_steps engine =
      let shadow_tags loc =
        let shadow = Engine.shadow engine in
        match loc with
        | Mitos_flow.Loc.Reg r -> Mitos_tag.Shadow.tags_of_reg shadow r
        | Mitos_flow.Loc.Mem a -> Mitos_tag.Shadow.tags_of_addr shadow a
      in
      Engine.on_record engine (fun record ->
          let step = record.Mitos_isa.Machine.step in
          if step >= from && step < from + count then begin
            let written = Mitos_flow.Extract.written_locs record in
            let taint =
              List.filter_map
                (fun loc ->
                  match shadow_tags loc with
                  | [] -> None
                  | tags ->
                    Some
                      (Printf.sprintf "%s<-[%s]"
                         (Mitos_flow.Loc.to_string loc)
                         (String.concat ";"
                            (List.map Mitos_tag.Tag.to_string tags))))
                written
            in
            Printf.printf "%8d  @%-5d %-28s %s\n" step
              record.Mitos_isa.Machine.pc
              (Mitos_isa.Instr.to_string record.Mitos_isa.Machine.instr)
              (String.concat " " taint)
          end)
    in
    let engine = live_engine ~setup:print_steps policy built in
    ignore (Engine.run ~max_steps:(from + count) engine)
  in
  let from_arg =
    Arg.(value & opt int 0 & info [ "from" ] ~docv:"N" ~doc:"First step to print.")
  in
  let count_arg =
    Arg.(value & opt int 40 & info [ "count"; "n" ] ~docv:"M" ~doc:"Steps to print.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Single-step a workload under a policy, printing each \
          instruction and the taint of what it wrote.")
    Term.(const run $ policy_term $ built_term $ from_arg $ count_arg)

let sites_cmd =
  let run policy built top =
    let engine = live_engine policy built in
    ignore (Engine.run engine);
    let t =
      Mitos_util.Table.create
        ~header:[ "pc"; "instruction"; "ifp+"; "ifp-"; "block rate" ] ()
    in
    List.iteri
      (fun i (pc, prop, blocked) ->
        if i < top then
          Mitos_util.Table.add_row t
            [
              string_of_int pc;
              Mitos_isa.Instr.to_string
                (Mitos_isa.Program.instr built.W.Workload.program pc);
              string_of_int prop;
              string_of_int blocked;
              Printf.sprintf "%.0f%%"
                (100.0 *. float_of_int blocked
                /. float_of_int (max 1 (prop + blocked)));
            ])
      (Engine.site_profile engine);
    Mitos_util.Table.print t
  in
  let top_arg =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"K" ~doc:"Sites to show.")
  in
  Cmd.v
    (Cmd.info "sites"
       ~doc:
         "Profile the indirect-flow hot spots of a workload under a \
          policy: which instructions decide the most tags, and where \
          taint is being blocked.")
    Term.(const run $ policy_term $ built_term $ top_arg)

let solve_cmd =
  let run spec tau alpha =
    (* spec like "network:3,file:1" - counts of items per type *)
    let params =
      checked_params (fun () ->
          Mitos.Params.make ~alpha ~tau ~tau_scale:1.0 ~total_tag_space:10_000
            ~mem_capacity:1_000 ())
    in
    let items =
      String.split_on_char ',' spec
      |> List.concat_map (fun part ->
             let bad what s = or_die (Error (Printf.sprintf "%s %S" what s)) in
             match String.split_on_char ':' (String.trim part) with
             | [ ty; n ] ->
               let ty =
                 match Mitos_tag.Tag_type.of_string (String.trim ty) with
                 | ty -> ty
                 | exception Invalid_argument _ -> bad "unknown tag type" ty
               in
               (match int_of_string_opt (String.trim n) with
               | Some n when n >= 0 ->
                 List.init n (fun _ -> Mitos.Solver.item params ty)
               | _ -> bad "bad item count" n)
             | _ -> bad "bad item spec" part)
      |> Array.of_list
    in
    let kkt = Mitos.Solver.solve_kkt params items in
    let greedy = Mitos.Solver.solve_greedy_integer params items in
    let exact, stats = Mitos.Solver.solve_branch_and_bound params items in
    let t =
      Mitos_util.Table.create
        ~header:[ "item"; "KKT (relaxed)"; "greedy"; "exact integer" ] ()
    in
    Array.iteri
      (fun j item ->
        Mitos_util.Table.add_row t
          [
            Printf.sprintf "%s[%d]"
              (Mitos_tag.Tag_type.to_string item.Mitos.Solver.ty) j;
            Printf.sprintf "%.3f" kkt.(j);
            string_of_int greedy.(j);
            string_of_int exact.(j);
          ])
      items;
    Mitos_util.Table.print t;
    let obj n = Mitos.Solver.objective params items n in
    Printf.printf
      "objectives: relaxed %.6f <= exact %.6f (B&B: %d nodes, %d pruned) \
       <= greedy %.6f\n"
      (obj kkt) stats.Mitos.Solver.optimum stats.Mitos.Solver.nodes_explored
      stats.Mitos.Solver.nodes_pruned
      (obj (Array.map float_of_int greedy))
  in
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "Tag population, e.g. 'network:2,file:1' (two network items, \
             one file item).")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve the static Problem 1 for a tag population: relaxed KKT vs \
          greedy vs exact branch-and-bound.")
    Term.(const run $ spec_arg $ tau_arg $ alpha_arg)

let asm_cmd =
  let run file (policy, route_direct) =
    let source =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let program =
      try Mitos_isa.Parser.parse source
      with Mitos_isa.Parser.Parse_error (line, msg) ->
        or_die (Error (Printf.sprintf "%s:%d: %s" file line msg))
    in
    (* standard harness resources: connection 1, file 1, process 1 *)
    let os = Mitos_system.Os.create ~seed:42 () in
    ignore (Mitos_system.Os.open_connection os);
    ignore (Mitos_system.Os.create_file os (String.make 64 'c'));
    ignore
      (Mitos_system.Os.spawn_process os
         ~base:Mitos_system.Layout.process_base ~size:4096);
    let machine =
      Mitos_isa.Machine.create ~mem_size:Mitos_system.Layout.mem_size
        ~syscall:(Mitos_system.Os.handler os) program
    in
    let engine =
      Engine.create
        ~config:(engine_config ~route_direct)
        ~policy
        ~source_tag:(Mitos_system.Os.source_tag os)
        program
    in
    Engine.attach engine machine;
    print_summary (Metrics.measure_run engine)
  in
  let file_pos0 =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Assembly source file.")
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:
         "Assemble and run a textual program under a policy. The harness \
          provides connection 1 (tainted stream), file 1 and process 1.")
    Term.(const run $ file_pos0 $ policy_term)

let litmus_cmd =
  let run (policy, _route_direct) =
    let t =
      Mitos_util.Table.create
        ~header:[ "case"; "class"; "tainted?"; "description" ] ()
    in
    List.iter
      (fun (o : Litmus.outcome) ->
        Mitos_util.Table.add_row t
          [
            o.Litmus.case.Litmus.case_name;
            (match o.Litmus.case.Litmus.case_class with
            | Litmus.Direct -> "direct"
            | Litmus.Addr -> "addr-dep"
            | Litmus.Ctrl -> "ctrl-dep"
            | Litmus.Ijump -> "ijump");
            (if o.Litmus.tainted then "yes" else "no");
            o.Litmus.case.Litmus.description;
          ])
      (Litmus.run policy);
    Mitos_util.Table.print t
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Run the flow-class litmus suite under a policy: which kinds of \
          flows does it actually propagate?")
    Term.(const run $ policy_term)

let attack_cmd =
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run the Table II in-memory-attack comparison (all six shells).")
    Term.(
      const run_experiment $ const "table2" $ jobs_arg $ const 1 $ listen_arg
      $ slo_arg)

(* -- audit --------------------------------------------------------------- *)

module Audit = Mitos_obs.Audit
module Exp = Mitos_experiments

let audit_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-out" ] ~docv:"FILE"
        ~doc:
          "Write the decision audit log as JSONL to $(docv) (one record \
           per line; byte-identical across runs and --jobs settings).")

let audit_capacity_term =
  checked (fun n -> n >= 1) "--audit-capacity must be at least 1"
    Arg.(
      value
      & opt int 65536
      & info [ "audit-capacity" ] ~docv:"N"
          ~doc:"Audit ring capacity in records (keep-oldest).")

let write_audit_out audit = function
  | None -> ()
  | Some path ->
    Obs.write_file path (Audit.to_jsonl audit);
    Printf.printf "wrote audit log (%d records, %d dropped) to %s\n"
      (Audit.length audit) (Audit.dropped audit) path

(* Run a workload live with the flight recorder threaded through the
   engine and its decision context; obs (when requested) cross-links
   the records into the Chrome trace as instant events. *)
let audited_run ~capacity ?obs ~sample_every (policy, route_direct) built =
  let audit = Audit.create ~capacity () in
  let engine =
    W.Workload.run_live
      ~config:(engine_config ~route_direct)
      ?obs ~sample_every ~audit ~policy built
  in
  (audit, engine)

let audit_log_cmd =
  let run capacity obs_opts policy built out =
    let audit, _engine =
      audited_run ~capacity ?obs:obs_opts.obs
        ~sample_every:obs_opts.sample_every policy built
    in
    (match out with
    | Some _ -> write_audit_out audit out
    | None -> print_string (Audit.to_jsonl audit));
    finish_obs obs_opts
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:
         "Run a workload with the decision flight recorder on and dump \
          the audit log (JSONL): every Alg. 1/2 verdict with its Eq. (8) \
          submarginals, plus evictions. Writes to --audit-out, or stdout.")
    Term.(
      const run $ audit_capacity_term $ obs_term $ policy_term $ built_term
      $ audit_out_arg)

let audit_blame_cmd =
  let run capacity target seed params out jobs =
    let summary =
      with_jobs jobs (fun ~pool ->
          match target with
          | "litmus" -> Exp.Blame.litmus ~capacity ~pool params
          | name ->
            (* validate the name before the expensive runs *)
            ignore (or_die (build_workload name ~seed));
            Exp.Blame.workload ~capacity ~pool ~name params (fun () ->
                or_die (build_workload name ~seed)))
    in
    Exp.Report.print
      (Exp.Blame.report
         ~title:(Printf.sprintf "Blame attribution (%s, mitos policy)" target)
         summary);
    write_audit_out summary.Exp.Blame.audit out
  in
  let target_arg =
    Arg.(
      value
      & pos 0 string "litmus"
      & info [] ~docv:"TARGET"
          ~doc:"'litmus' (the flow-class suite) or a workload name.")
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Attribute every over-/under-tainted byte (vs. the faros and \
          propagate-all oracle bounds) to the audit records that caused \
          it, ranked per tag and per pc.")
    Term.(
      const run $ audit_capacity_term $ target_arg $ seed_arg $ params_term
      $ audit_out_arg $ jobs_arg)

let audit_graph_cmd =
  let run capacity policy built out dot_out json_out =
    let audit, engine =
      audited_run ~capacity ~sample_every:1024 policy built
    in
    let graph =
      Exp.Flowgraph.build ~shadow:(Engine.shadow engine) (Audit.records audit)
    in
    Option.iter
      (fun path ->
        write_out "flow graph (DOT)" path (Exp.Flowgraph.to_dot graph))
      dot_out;
    Option.iter
      (fun path ->
        write_out "flow graph (JSON)" path (Exp.Flowgraph.to_json graph))
      json_out;
    if dot_out = None && json_out = None then
      print_string (Exp.Flowgraph.to_dot graph);
    write_audit_out audit out
  in
  let dot_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot-out" ] ~docv:"FILE" ~doc:"Write Graphviz DOT to $(docv).")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Write graph JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Run a workload audited and export the taint propagation graph \
          (tag and decision-site nodes, verdict and eviction edges) as \
          DOT and/or JSON. With neither output flag, DOT goes to stdout.")
    Term.(
      const run $ audit_capacity_term $ policy_term $ built_term
      $ audit_out_arg $ dot_out_arg $ json_out_arg)

let audit_cmd =
  Cmd.group
    (Cmd.info "audit"
       ~doc:
         "Decision flight recorder: dump the per-decision audit log, \
          attribute over-/under-tainting to decisions (blame), or export \
          the taint flow graph.")
    [ audit_log_cmd; audit_blame_cmd; audit_graph_cmd ]

(* -- serve / watch ------------------------------------------------------- *)

let serve_cmd =
  let run name seed params slo window sample_every listen oneshot jobs =
    if not (window >= 0.0) then
      or_die (Error "--window must be non-negative");
    if listen = None && oneshot = None then
      or_die (Error "nothing to do: pass --listen HOST:PORT and/or --oneshot DIR");
    with_jobs jobs (fun ~pool ->
        let p, routes, server =
          run_pilot ~params ~window ~sample_every ~pool ~listen ~slo
            ~build:(fun () -> or_die (build_workload name ~seed))
            ()
        in
        let progress = Engine.progress p.Tele.engine in
        Printf.printf
          "pilot replay done: %d records, %d IFP decisions, over-taint bound \
           %.0f bytes, health %s\n"
          progress.Engine.prog_step
          (progress.Engine.prog_ifp_propagated
          + progress.Engine.prog_ifp_blocked)
          p.Tele.over_taint_bound
          (match p.Tele.src.Tele.slo with
          | Some slo when not (Alerts.healthy slo) -> "BREACH"
          | _ -> "ok");
        (match oneshot with
        | None -> ()
        | Some dir ->
          List.iter
            (fun (_file, path) -> Printf.printf "wrote %s\n" path)
            (Server.oneshot ~dir routes));
        finish_server server)
  in
  let workload_opt_arg =
    Arg.(
      value
      & pos 0 string "netbench"
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to pilot (default netbench; see `mitos-cli list').")
  in
  let window_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "window" ] ~docv:"STEPS"
          ~doc:
            "Threshold-rule evaluation window in machine steps: 0 judges \
             the latest sample, a positive window judges the trailing mean.")
  in
  let oneshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "oneshot" ] ~docv:"DIR"
          ~doc:
            "Write every endpoint payload once to $(docv) \
             (metrics.prom, healthz.txt, snapshot.json, tracez.jsonl, \
             auditz.jsonl) — the deterministic offline twin of the live \
             endpoints; byte-identical across --jobs settings.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the telemetry pilot (record a workload, sweep the oracle \
          policy panel, replay audited under MITOS) and expose the full \
          telemetry surface — live via --listen, and/or as files via \
          --oneshot.")
    Term.(
      const run $ workload_opt_arg $ seed_arg $ params_term $ slo_arg
      $ window_arg $ sample_every_term $ listen_arg $ oneshot_arg $ jobs_arg)

let timeout_term ~doc =
  checked (fun t -> t > 0.0) "--timeout must be positive"
    Arg.(
      value
      & opt float Mitos_obs.Netio.default_timeout
      & info [ "timeout" ] ~docv:"SECONDS" ~doc)

(* A telemetry URL as host, port and path; a URL without a path gets
   [path]. *)
let parse_target ~path url =
  let host, port, url_path = or_die (Server.parse_url url) in
  (host, port, if url_path = "/" then path else url_path)

let watch_cmd =
  let run urls interval count timeout burn_slo =
    if count < 1 then or_die (Error "--count must be at least 1");
    if interval < 0.0 then or_die (Error "--interval must be non-negative");
    let targets = List.map (parse_target ~path:"/healthz") urls in
    (* per-target verdict of the *last* poll: 0 ok / 1 breach /
       2 unreachable; the exit code is the worst across targets, so
       one watch invocation judges a whole fleet. With --burn-slo the
       probe body's firing lines escalate a breach: a page-severity
       alert exits 2 like an outage, a ticket stays 1. *)
    let page_verdict body =
      Mitos_obs.Fleet.parse_firing body
      |> List.exists (fun (_, sev) -> sev = Alerts.Page)
    in
    let verdicts = Array.make (List.length targets) 2 in
    for i = 1 to count do
      List.iteri
        (fun j (host, port, path) ->
          match Server.fetch ~timeout ~host ~port ~path () with
          | Error msg ->
            verdicts.(j) <- 2;
            Printf.printf "%s:%d%s unreachable: %s\n%!" host port path msg
          | Ok (status, body) ->
            verdicts.(j) <-
              (if status = 200 then 0
               else if burn_slo && page_verdict body then 2
               else 1);
            let first_line =
              match String.index_opt body '\n' with
              | Some nl -> String.sub body 0 nl
              | None -> body
            in
            Printf.printf "%s:%d%s %d %s\n%!" host port path status first_line)
        targets;
      if i < count then ignore (Unix.sleepf interval)
    done;
    match Array.fold_left max 0 verdicts with
    | 0 -> ()
    | worst -> exit worst
  in
  let urls_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"URL"
          ~doc:
            "Telemetry addresses, e.g. http://127.0.0.1:9100 (path defaults \
             to /healthz). With several URLs, every target is polled each \
             round and the exit code is the worst verdict across them.")
  in
  let interval_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Delay between polls.")
  in
  let count_arg =
    Arg.(
      value
      & opt int 1
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of polls (default 1).")
  in
  let watch_burn_arg =
    Arg.(
      value
      & flag
      & info [ "burn-slo" ]
          ~doc:
            "Grade breaches by burn-rate alert severity: when a non-200 \
             probe body carries a page-severity firing line (a server \
             running --burn-slo rules), exit 2 instead of 1 — so pager \
             wiring can treat a fast-burn alert like an outage.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Poll one or more serving mitos processes: one status line per \
          target per poll. Exit 0 when every target's last poll returned \
          200, 1 when the worst target showed an SLO breach (non-200), 2 \
          when any target was unreachable or a URL was malformed (or, \
          with --burn-slo, reported a page-severity alert firing).")
    Term.(
      const run $ urls_arg $ interval_arg $ count_arg
      $ timeout_term ~doc:"Per-poll socket timeout (connect and read)."
      $ watch_burn_arg)

(* -- alerts -------------------------------------------------------------- *)

let alerts_cmd =
  let run url incidents timeout =
    let host, port, path =
      parse_target ~path:(if incidents then "/alertz" else "/alerts") url
    in
    match Server.fetch ~timeout ~host ~port ~path () with
    | Error msg ->
      or_die (Error (Printf.sprintf "%s:%d%s %s" host port path msg))
    | Ok (status, body) ->
      print_string body;
      if body <> "" && body.[String.length body - 1] <> '\n' then
        print_newline ();
      if status <> 200 then exit 2;
      (* the /alerts body carries its own severity rollup; grading on
         the canonical substring keeps the CLI JSON-parser-free *)
      let contains needle =
        let n = String.length needle and h = String.length body in
        let rec go i =
          i + n <= h && (String.sub body i n = needle || go (i + 1))
        in
        go 0
      in
      if contains "\"worst\":\"page\"" then exit 2
      else if contains "\"worst\":\"ticket\"" then exit 1
  in
  let url_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"URL"
          ~doc:
            "Telemetry address of a process serving burn-rate alerts \
             (serve-decisions/fleet with --burn-slo and --listen), e.g. \
             http://127.0.0.1:9100. A URL path overrides the default \
             endpoint choice.")
  in
  let incidents_arg =
    Arg.(
      value
      & flag
      & info [ "incidents" ]
          ~doc:
            "Fetch /alertz (the incident-timeline JSONL ring) instead of \
             the /alerts state JSON.")
  in
  Cmd.v
    (Cmd.info "alerts"
       ~doc:
         "Fetch a serving process's burn-rate alert state (/alerts JSON, \
          or the incident JSONL ring with --incidents) and print it. Exit \
          0 when nothing is firing, 1 when the worst firing alert is \
          ticket severity, 2 when a page is firing or the fetch failed.")
    Term.(
      const run $ url_arg $ incidents_arg
      $ timeout_term ~doc:"Socket timeout (connect and read).")

(* -- decision service ---------------------------------------------------- *)

module Net = Mitos_net
module Cluster = Mitos_distrib.Cluster

let parse_endpoint s = or_die (Net.Transport.endpoint_of_string s)

let endpoint_arg ~default ~doc =
  Arg.(
    value
    & opt string default
    & info [ "endpoint"; "e" ] ~docv:"ENDPOINT" ~doc)

let net_workers_arg =
  Arg.(
    value
    & opt int Net.Server.default_config.Net.Server.workers
    & info [ "workers" ] ~docv:"N"
        ~doc:"Domains serving connections, each one readiness loop (0 = one).")

let net_nodes_arg =
  Arg.(
    value
    & opt int Net.Server.default_config.Net.Server.nodes
    & info [ "nodes" ] ~docv:"N"
        ~doc:"Estimator slots (max cluster nodes the service accepts).")

let read_timeout_arg =
  Arg.(
    value
    & opt float Net.Server.default_config.Net.Server.read_timeout
    & info [ "read-timeout" ] ~docv:"SECONDS"
        ~doc:"Seconds a connection may stay silent, leave a frame \
              unfinished or leave its replies unread before it is dropped.")

let shards_arg ~default ~doc =
  Arg.(value & opt int default & info [ "shards" ] ~docv:"N" ~doc)

let estimator_shards_arg ~default =
  shards_arg ~default
    ~doc:
      "Estimator shards: per-node pollution contributions are split \
       across N independently locked slot ranges (1 = the legacy single \
       lock). The folded global is deterministic for a fixed N."

(* serve-decisions and coordinator are one implementation: the
   coordinator *is* a decision server whose estimator the cluster
   nodes publish into. *)
let run_decision_server endpoint workers nodes shards read_timeout params
    listen slo burn_slo node_id telemetry =
  if nodes < 1 then or_die (Error "--nodes must be at least 1");
  if workers < 0 then or_die (Error "--workers must be non-negative");
  if shards < 1 then or_die (Error "--shards must be at least 1");
  if node_id = "" then or_die (Error "--node-id must be non-empty");
  let config =
    { Net.Server.default_config with
      workers; nodes; read_timeout; estimator_shards = shards; node_id }
  in
  (* The service shares one real-clock obs context with its telemetry
     surface: server spans (stamped with client trace contexts) land
     in its tracer, request metrics in its registry. *)
  let obs = Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) () in
  let registry = Obs.registry obs in
  let service = Net.Server.create ~config ~registry ~obs ~params () in
  let listener = Net.Server.start service (parse_endpoint endpoint) in
  Printf.printf "decision service on %s (%d workers, %d estimator slots)\n%!"
    (Net.Transport.endpoint_to_string (Net.Server.endpoint listener))
    workers nodes;
  (* One SLO engine for --slo and --burn-slo, sharing the obs tracer
     so breaches and alert transitions land in /tracez as instants. *)
  let slo = Alerts.create ~rules:(parse_rules ~burn:burn_slo slo) () in
  Alerts.link_tracer slo (Obs.tracer obs);
  let src = Tele.source ~slo obs in
  (* The engine is fed by the linger tick on this domain and (with
     --telemetry) read by loop domains answering Query_telemetry;
     one mutex covers it. *)
  let slo_mu = Mutex.create () in
  let with_slo f =
    Mutex.lock slo_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock slo_mu) f
  in
  if telemetry then begin
    Net.Server.set_health_probe service (fun () ->
        with_slo (fun () -> Tele.health_verdict src));
    Printf.printf
      "wire telemetry on: Query_telemetry serves node %s's health and \
       registry snapshot\n%!"
      node_id
  end;
  let http =
    start_server ~listen (Tele.routes ~pid:(Unix.getpid ()) src)
  in
  (match http with
  | Some _ -> ()
  | None -> print_endline "serving; interrupt (Ctrl-C or SIGTERM) to exit");
  (* once a second: GC + lock gauges into /metrics, then the
     contention-share signals, the request counter and its derived
     rate into the SLO store before re-judging every rule *)
  let requests_total () =
    List.fold_left
      (fun acc (r : Mitos_obs.Registry.Snapshot.row) ->
        match r.Mitos_obs.Registry.Snapshot.value with
        | Mitos_obs.Registry.Snapshot.Counter c
          when r.Mitos_obs.Registry.Snapshot.name = "mitos_net_requests_total"
          ->
          acc + c
        | _ -> acc)
      0
      (Mitos_obs.Registry.snapshot registry)
  in
  let observations = ref 0 in
  let tick () =
    Mitos_obs.Runtime.sample registry;
    incr observations;
    let at = float_of_int !observations in
    let signals = Mitos_obs.Runtime.signals () in
    with_slo (fun () ->
        let db = Alerts.tsdb slo in
        Tsdb.observe db ~at signals;
        Tsdb.add db "net_requests_total" ~at (float_of_int (requests_total ()));
        Tsdb.add db "net_request_rate" ~at
          (Tsdb.rate db "net_requests_total" ~at ~window:15.0);
        Alerts.eval slo ~at)
  in
  linger ~tick ();
  Option.iter Server.stop http;
  Net.Server.stop listener

let node_id_arg =
  Arg.(
    value
    & opt string Net.Server.default_config.Net.Server.node_id
    & info [ "node-id" ] ~docv:"ID"
        ~doc:
          "The id this node reports in telemetry replies — the node label \
           of its series in a federated /metrics. Give each fleet member a \
           distinct id.")

let telemetry_flag_arg =
  Arg.(
    value
    & flag
    & info [ "telemetry" ]
        ~doc:
          "Answer wire Query_telemetry requests with this node's live SLO \
           verdict (instead of the default always-healthy probe), so a \
           `mitos-cli fleet' aggregator rolls this node's /healthz into \
           the fleet verdict.")

let decision_server_term =
  Term.(
    const run_decision_server
    $ endpoint_arg ~default:"tcp://127.0.0.1:9900"
        ~doc:
          "Endpoint to serve: tcp://HOST:PORT (port 0 picks a free port), \
           unix://PATH or mem://NAME."
    $ net_workers_arg $ net_nodes_arg
    $ estimator_shards_arg
        ~default:Net.Server.default_config.Net.Server.estimator_shards
    $ read_timeout_arg $ params_term $ listen_arg $ slo_arg $ burn_slo_arg
    $ node_id_arg $ telemetry_flag_arg)

let serve_decisions_cmd =
  Cmd.v
    (Cmd.info "serve-decisions"
       ~doc:
         "Serve the MITOS decision protocol: batched indirect-flow \
          decisions under the given parameters, plus the shared pollution \
          estimator. --listen additionally exposes /metrics (request \
          counters and latency percentiles) over HTTP. Runs until \
          interrupted.")
    decision_server_term

let coordinator_cmd =
  Cmd.v
    (Cmd.info "coordinator"
       ~doc:
         "Host the cluster coordinator: the decision server whose \
          estimator holds every node's published pollution (the paper's \
          globally available scalar, over the wire). Point `mitos-cli \
          node' processes at this endpoint.")
    decision_server_term

(* -- fleet --------------------------------------------------------------- *)

module Fleet = Mitos_obs.Fleet

(* One persistent wire client per endpoint; a failed roundtrip drops
   the cached client so the next scrape reconnects from scratch
   instead of reusing a dead connection. *)
let fleet_fetcher ~timeout endpoint_str =
  let endpoint = parse_endpoint endpoint_str in
  let cell = ref None in
  let fetch () =
    let client =
      match !cell with
      | Some c -> Ok c
      | None -> (
        match Net.Client.connect ~timeout ~retries:0 endpoint with
        | Ok c ->
          cell := Some c;
          Ok c
        | Error e -> Error e)
    in
    match client with
    | Error e -> Error (Net.Client.error_to_string e)
    | Ok c -> (
      match Net.Client.telemetry c with
      | Ok r ->
        Ok
          {
            Fleet.node = r.Net.Wire.node;
            healthy = r.Net.Wire.healthy;
            health = r.Net.Wire.health;
            snapshot = r.Net.Wire.snapshot;
          }
      | Error e ->
        Net.Client.close c;
        cell := None;
        Error (Net.Client.error_to_string e))
  in
  (endpoint_str, fetch)

let fleet_cell v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v

let render_fleet_table fleet =
  let b = Buffer.create 512 in
  let row name verdict rate p99_ms occupancy requests =
    Buffer.add_string b
      (Printf.sprintf "%-24s %-12s %9s %9s %10s %10s\n" name verdict rate
         p99_ms occupancy requests)
  in
  row "node" "health" "req/s" "p99-ms" "occupancy" "requests";
  let views = Fleet.nodes fleet in
  List.iter
    (fun (v : Fleet.node_view) ->
      let verdict =
        if not v.up then "unreachable"
        else if v.stale then "stale"
        else if not v.node_healthy then "breach"
        else "ok"
      in
      row v.node_id verdict
        (fleet_cell v.request_rate)
        (fleet_cell (v.decide_p99_ns /. 1e6))
        (fleet_cell v.occupancy)
        (string_of_int v.node_requests_total))
    views;
  let signals = Fleet.signals fleet in
  let signal name =
    match List.assoc_opt name signals with Some v -> v | None -> Float.nan
  in
  let sum f =
    List.fold_left
      (fun acc v -> if Float.is_nan (f v) then acc else acc +. f v)
      0.0 views
  in
  let up = signal "fleet_up" and total = signal "fleet_nodes" in
  let merged_name =
    if Float.is_nan up then "fleet"
    else Printf.sprintf "fleet (%.0f/%.0f up)" up total
  in
  row merged_name
    (if Fleet.healthy fleet then "ok" else "breach")
    (fleet_cell (sum (fun (v : Fleet.node_view) -> v.request_rate)))
    (fleet_cell (signal "fleet_decision_p99_ns" /. 1e6))
    (fleet_cell (sum (fun (v : Fleet.node_view) -> v.occupancy)))
    (let r = signal "fleet_requests_total" in
     if Float.is_nan r then "-" else Printf.sprintf "%.0f" r);
  Buffer.contents b

let fleet_cmd =
  let run endpoints interval_opt count timeout listen slo burn_slo stale_after
      =
    if stale_after <= 0.0 then or_die (Error "--stale-after must be positive");
    if count < 0 then or_die (Error "--count must be non-negative");
    (match interval_opt with
    | Some i when i <= 0.0 -> or_die (Error "--interval must be positive")
    | _ -> ());
    (* fleet-level rules judge the *fleet* signals (fleet_unreachable,
       fleet_decision_p99_ns, ...) scraped every round; per-node alerts
       travel in each node's health body *)
    let slo =
      Alerts.create
        ~rules:(parse_rules ~defaults:Fleet.default_rules ~burn:burn_slo slo)
        ()
    in
    let fleet =
      try
        Fleet.create ~stale_after ~slo
          (List.map (fleet_fetcher ~timeout) endpoints)
      with Invalid_argument msg -> or_die (Error msg)
    in
    let scrape_and_print () =
      Fleet.scrape fleet ~at:(Unix.gettimeofday ());
      print_string (render_fleet_table fleet);
      flush stdout
    in
    let live = listen <> None || interval_opt <> None in
    if not live then begin
      (* one-shot: scrape, print the table, exit with the verdict *)
      scrape_and_print ();
      if not (Fleet.healthy fleet) then exit 1
    end
    else begin
      let interval = Option.value interval_opt ~default:2.0 in
      let http = start_server ~listen (Fleet.routes fleet) in
      install_shutdown_handlers ();
      let rounds = ref 0 in
      let continue () =
        (not (Atomic.get shutdown_requested)) && (count = 0 || !rounds < count)
      in
      while continue () do
        if !rounds > 0 then print_newline ();
        Printf.printf "-- scrape %d --\n" (!rounds + 1);
        scrape_and_print ();
        incr rounds;
        if continue () then nap interval
      done;
      Option.iter Server.stop http;
      if count > 0 && not (Fleet.healthy fleet) then exit 1
    end
  in
  let endpoints_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"ENDPOINT"
          ~doc:
            "Decision-service endpoints to federate (tcp://HOST:PORT, \
             unix://PATH or mem://NAME) — each serving wire telemetry \
             (serve-decisions --telemetry).")
  in
  let interval_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:
            "Live mode: re-scrape and re-print the fleet table every \
             $(docv) (default one-shot).")
  in
  let count_arg =
    Arg.(
      value
      & opt int 0
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:
            "In live mode, stop after $(docv) scrapes (0 = until \
             interrupted) and exit with the last verdict.")
  in
  let fleet_listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve the federated surfaces on $(docv) while scraping: GET \
             /metrics (every node's series labelled node=\"<id>\" plus \
             fleet meta-series), /fleet.json (per-node + merged rollup), \
             /healthz (worst-of-fleet verdict; 503 names the breaching \
             node). Implies live mode.")
  in
  let stale_after_arg =
    Arg.(
      value
      & opt float 60.0
      & info [ "stale-after" ] ~docv:"SECONDS"
          ~doc:
            "Drop a node from the merged rollup (and breach the fleet \
             verdict) when its last successful scrape is older than \
             $(docv).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Federate telemetry across a fleet of decision servers: scrape \
          each endpoint's registry snapshot over the wire protocol, merge \
          exactly (counters sum, histograms merge bucket-wise so fleet \
          p99 comes from merged buckets, gauges stay per-node), and print \
          a live per-node table with a merged fleet row. Exit 0 when the \
          fleet is healthy, 1 otherwise (one-shot and --count modes).")
    Term.(
      const run $ endpoints_arg $ interval_arg $ count_arg
      $ timeout_term ~doc:"Per-node connect/roundtrip timeout."
      $ fleet_listen_arg $ slo_arg $ burn_slo_arg $ stale_after_arg)

let sync_period_term =
  checked (fun n -> n >= 1) "--sync-period must be at least 1"
    Arg.(
      value
      & opt int 64
      & info [ "sync-period" ] ~docv:"STEPS"
          ~doc:"Engine steps between pollution publishes.")

let node_cmd =
  let run endpoint index params built sync_period =
    let node =
      Net.Netcluster.create ~index_base:index ~params ~sync_period
        ~endpoint:(parse_endpoint endpoint) [ built ]
    in
    let cluster = Net.Netcluster.cluster node in
    let rounds = Cluster.run cluster in
    print_string (Cluster.report ~rounds cluster);
    Net.Netcluster.close node
  in
  let index_term =
    checked (fun i -> i >= 0) "--index must be non-negative"
      Arg.(
        value
        & opt int 0
        & info [ "index" ] ~docv:"I"
            ~doc:
              "This node's estimator slot at the coordinator (each process \
               needs its own).")
  in
  Cmd.v
    (Cmd.info "node"
       ~doc:
         "Run one cluster node: execute WORKLOAD under a MITOS policy \
          whose global pollution is read from the coordinator, publishing \
          the local contribution every --sync-period steps.")
    Term.(
      const run
      $ endpoint_arg ~default:"tcp://127.0.0.1:9900"
          ~doc:"Coordinator endpoint."
      $ index_term $ params_term $ built_term $ sync_period_term)

let cluster_cmd =
  let run transport nodes shards sync_period seed workload jobs params
      report_out =
    if nodes < 1 then or_die (Error "--nodes must be at least 1");
    if shards < 1 then or_die (Error "--shards must be at least 1");
    let entry = or_die (find_workload workload) in
    with_jobs jobs (fun ~pool ->
        let builts =
          Pool.map pool
            ~f:(fun i -> entry.W.Registry.build ~seed:(seed + i))
            (List.init nodes Fun.id)
        in
        let report cluster =
          let rounds = Cluster.run cluster in
          Cluster.report ~rounds cluster
        in
        let net_report ~endpoint builts =
          let net =
            Net.Netcluster.create ~params ~sync_period ~endpoint builts
          in
          Fun.protect
            ~finally:(fun () -> Net.Netcluster.close net)
            (fun () -> report (Net.Netcluster.cluster net))
        in
        let text =
          match transport with
          | "inprocess" ->
            report (Cluster.create ~shards ~params ~sync_period builts)
          | "loopback" ->
            (* same shard count as inprocess, so the two transports
               fold the estimator identically and the byte-diff holds
               at any --shards *)
            let service =
              Net.Server.create
                ~config:
                  { Net.Server.default_config with
                    nodes; workers = 0; estimator_shards = shards }
                ~params ()
            in
            let name = Printf.sprintf "cluster-%d" (Unix.getpid ()) in
            let listener =
              Net.Server.start service (Net.Transport.Memory name)
            in
            Fun.protect
              ~finally:(fun () -> Net.Server.stop listener)
              (fun () ->
                net_report ~endpoint:(Net.Transport.Memory name) builts)
          | other -> net_report ~endpoint:(parse_endpoint other) builts
        in
        print_string text;
        match report_out with
        | None -> ()
        | Some path ->
          Obs.write_file path text;
          Printf.printf "wrote report to %s\n" path)
  in
  let transport_arg =
    Arg.(
      value
      & opt string "inprocess"
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Where the pollution estimator lives: 'inprocess' (a shared \
             in-process array), 'loopback' (a decision server over the \
             in-memory transport — byte-identical report to inprocess at \
             any --jobs), or a coordinator ENDPOINT (tcp://HOST:PORT). \
             The nodes run the same loop whichever is chosen.")
  in
  let nodes_arg =
    Arg.(
      value
      & opt int 3
      & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let workload_opt_arg =
    Arg.(
      value
      & opt string "netbench"
      & info [ "workload"; "w" ] ~docv:"WORKLOAD"
          ~doc:"Workload each node runs (node i uses --seed + i).")
  in
  let report_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-out" ] ~docv:"FILE"
          ~doc:
            "Also write the deterministic report to $(docv) — what the CI \
             cluster-diff job byte-compares across transports and --jobs.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run a multi-node MITOS cluster to completion and print its \
          deterministic report. The same deployment can run against the \
          in-process estimator, a loopback decision server (byte-identical \
          by construction) or a live coordinator.")
    Term.(
      const run $ transport_arg $ nodes_arg $ estimator_shards_arg ~default:1
      $ sync_period_term $ seed_arg
      $ workload_opt_arg $ jobs_arg $ params_term $ report_out_arg)

let loadgen_cmd =
  let run endpoint requests batch candidates space publish_every node seed
      timeout propagation open_rate pareto_alpha diurnal_amp
      diurnal_period =
    let open_loop =
      match open_rate with
      | None -> None
      | Some rate_rps ->
        Some
          {
            Net.Loadgen.rate_rps;
            pareto_alpha;
            diurnal_amp;
            diurnal_period_s = diurnal_period;
          }
    in
    let config =
      {
        Net.Loadgen.requests;
        batch;
        candidates;
        space;
        publish_every;
        node;
        seed;
        propagation;
        open_loop;
      }
    in
    let obs =
      if propagation then Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) ()
      else Obs.disabled
    in
    match
      Net.Loadgen.run ~config ~client_timeout:timeout ~obs
        (parse_endpoint endpoint)
    with
    | Error err -> or_die (Error (Net.Client.error_to_string err))
    | Ok report ->
      print_string (Net.Loadgen.render report)
  in
  let d = Net.Loadgen.default_config in
  let requests_arg =
    Arg.(
      value
      & opt int d.Net.Loadgen.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Request frames to issue.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int d.Net.Loadgen.batch
      & info [ "batch" ] ~docv:"N" ~doc:"Decide requests per frame.")
  in
  let candidates_arg =
    Arg.(
      value
      & opt int d.Net.Loadgen.candidates
      & info [ "candidates" ] ~docv:"N"
          ~doc:"Max candidate tags per decide request.")
  in
  let space_arg =
    Arg.(
      value
      & opt int d.Net.Loadgen.space
      & info [ "space" ] ~docv:"N"
          ~doc:"Max free provenance slots per decide request.")
  in
  let publish_every_arg =
    Arg.(
      value
      & opt int d.Net.Loadgen.publish_every
      & info [ "publish-every" ] ~docv:"N"
          ~doc:"One pollution publish per N frames (0 = never).")
  in
  let node_arg =
    Arg.(
      value
      & opt int d.Net.Loadgen.node
      & info [ "node" ] ~docv:"I" ~doc:"Estimator slot the publishes target.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float Mitos_obs.Netio.default_timeout
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Client socket timeout.")
  in
  let propagate_arg =
    Arg.(
      value & flag
      & info [ "propagate" ]
          ~doc:
            "Stamp every request with a W3C-style trace context (one \
             trace id per roundtrip, minted from the seed) so server \
             spans stitch to this client in /tracez; the report then \
             prints a sample trace id to query.")
  in
  let d_ol = Net.Loadgen.default_open_loop in
  let open_rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"RPS"
          ~doc:
            "Issue on a seeded open-loop arrival schedule at a mean of \
             $(docv) frames/s (heavy-tail Pareto inter-arrivals, optional \
             diurnal ramp) instead of back-to-back; the report gains \
             offered-rate and max-lag lines.")
  in
  let pareto_alpha_arg =
    Arg.(
      value
      & opt float d_ol.Net.Loadgen.pareto_alpha
      & info [ "pareto-alpha" ] ~docv:"A"
          ~doc:"Open-loop inter-arrival tail shape (> 1; smaller = burstier).")
  in
  let diurnal_amp_arg =
    Arg.(
      value
      & opt float d_ol.Net.Loadgen.diurnal_amp
      & info [ "diurnal-amp" ] ~docv:"F"
          ~doc:
            "Open-loop diurnal swing: the offered rate ramps between \
             (1 +/- $(docv)) of the mean over each period.")
  in
  let diurnal_period_arg =
    Arg.(
      value
      & opt float d_ol.Net.Loadgen.diurnal_period_s
      & info [ "diurnal-period" ] ~docv:"SECONDS"
          ~doc:"Open-loop diurnal cycle length.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Generate a seeded synthetic decision-request mix against a \
          running decision service and report client-observed throughput \
          and latency percentiles.")
    Term.(
      const run
      $ endpoint_arg ~default:"tcp://127.0.0.1:9900"
          ~doc:"Decision-service endpoint to load."
      $ requests_arg $ batch_arg $ candidates_arg $ space_arg
      $ publish_every_arg $ node_arg $ seed_arg $ timeout_arg
      $ propagate_arg $ open_rate_arg $ pareto_alpha_arg $ diurnal_amp_arg
      $ diurnal_period_arg)

(* -- profile ------------------------------------------------------------- *)

let profile_cmd =
  let run requests batch workers nodes shards seed params out top_n =
    if shards < 1 then or_die (Error "--shards must be at least 1");
    (* A self-contained profiling run: a decision service on a real
       TCP socket (so frame codec, socket reads and worker handoff are
       all on the profile) loaded by the seeded generator with trace
       propagation on. Both sides run on the real clock; their tracers
       are folded into one collapsed-stack file under synthetic
       "client"/"server" roots, with the instrumented-mutex totals
       appended as "locks;NAME;wait|hold" rows. *)
    let module Profile = Mitos_obs.Profile in
    let module Contended = Mitos_obs.Contended in
    let server_obs = Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) () in
    let service =
      Net.Server.create
        ~config:
          { Net.Server.default_config with
            workers; nodes; estimator_shards = shards }
        ~registry:(Obs.registry server_obs) ~obs:server_obs ~params ()
    in
    let listener =
      Net.Server.start service
        (Net.Transport.Tcp { host = "127.0.0.1"; port = 0 })
    in
    let client_obs = Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) () in
    let config =
      {
        Net.Loadgen.default_config with
        requests;
        batch;
        seed;
        propagation = true;
      }
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Net.Server.stop listener)
        (fun () ->
          Net.Loadgen.run ~config ~obs:client_obs
            (Net.Server.endpoint listener))
    in
    let report =
      match result with
      | Error err -> or_die (Error (Net.Client.error_to_string err))
      | Ok report -> report
    in
    (* Tracer ticks are µs on the real clock; the export is in ns so
       span rows and lock rows share one unit. Lock totals are already
       ns — rendered unscaled. *)
    let scale = 1000 in
    let span_rows =
      Profile.fold ~root:"client" (Obs.tracer client_obs)
      @ Profile.fold ~root:"server" (Obs.tracer server_obs)
    in
    let lock_rows =
      List.concat_map
        (fun (name, (st : Contended.stats)) ->
          [
            {
              Profile.stack = [ "locks"; name; "wait" ];
              self = st.Contended.wait_ns_total;
              total = st.Contended.wait_ns_total;
              count = st.Contended.contended;
            };
            {
              Profile.stack = [ "locks"; name; "hold" ];
              self = st.Contended.hold_ns_total;
              total = st.Contended.hold_ns_total;
              count = st.Contended.acquisitions;
            };
          ])
        (Contended.aggregate ())
    in
    let folded =
      Profile.render_rows ~scale span_rows ^ Profile.render_rows lock_rows
    in
    Obs.write_file out folded;
    (* the estimator's shard locks must be on the profile: the loadgen
       publish stream acquires them, so their absence means the
       sharded estimator lost its instrumentation. Asserted on the row
       list, not the rendered file — a lock held for under a clock
       tick renders with weight 0 and is elided from the folded
       output, but its acquisition count is exact. *)
    let is_shard_lock (r : Profile.row) =
      match r.Profile.stack with
      | [ "locks"; name; _ ] ->
        String.length name > 16
        && String.sub name 0 16 = "estimator_shard_"
        && r.Profile.count > 0
      | _ -> false
    in
    let publishes_ran =
      config.Net.Loadgen.publish_every > 0
      && requests >= config.Net.Loadgen.publish_every
    in
    if publishes_ran && not (List.exists is_shard_lock lock_rows) then
      or_die
        (Error
           "profile: no estimator_shard_* lock acquisitions recorded \
            (estimator shard locks missing from the Contended registry)");
    if publishes_ran then
      Printf.printf "estimator shard locks profiled (shards=%d): ok\n" shards;
    print_string (Net.Loadgen.render report);
    let in_ns (r : Profile.row) =
      { r with Profile.self = r.self * scale; total = r.total * scale }
    in
    let t =
      Mitos_util.Table.create
        ~header:[ "stack"; "self (ns)"; "total (ns)"; "count" ]
        ()
    in
    List.iter
      (fun (r : Profile.row) ->
        Mitos_util.Table.add_row t
          [
            String.concat ";" r.Profile.stack;
            string_of_int r.Profile.self;
            string_of_int r.Profile.total;
            string_of_int r.Profile.count;
          ])
      (Profile.top ~n:top_n (List.map in_ns span_rows @ lock_rows));
    Printf.printf "\ntop self-time (of %d stacks):\n%s"
      (List.length span_rows + List.length lock_rows)
      (Mitos_util.Table.render t);
    Printf.printf "wrote collapsed stacks to %s\n" out
  in
  let requests_arg =
    Arg.(
      value
      & opt int 2000
      & info [ "requests" ] ~docv:"N" ~doc:"Request frames to profile.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int 10
      & info [ "batch" ] ~docv:"N" ~doc:"Decide requests per frame.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "profile.folded"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Collapsed-stack output (flamegraph.pl input: one \
             'frame;frame WEIGHT' line per stack, weights in ns).")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the printed self-time table.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the decision service: run a trace-propagating load \
          against a local TCP instance and write a collapsed-stack file \
          (client + server spans stitched, instrumented-lock wait/hold \
          appended) for flamegraph.pl.")
    Term.(
      const run $ requests_arg $ batch_arg $ net_workers_arg $ net_nodes_arg
      $ estimator_shards_arg ~default:4
      $ seed_arg $ params_term $ out_arg $ top_arg)

(* -- bench --------------------------------------------------------------- *)

let bench_compare_cmd =
  let run base change =
    let report =
      or_die
        (Exp.Bench_compare.of_files ~spec:"BENCHMARK.json" ~base ~change)
    in
    print_string (Exp.Bench_compare.render report);
    if not (Exp.Bench_compare.ok report) then exit 1
  in
  let runs name ~doc =
    Arg.(non_empty & opt_all string [] & info [ name ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare bench/perf runs of a base and a change made on the same \
          runner (each FILE a results.json from `perf.exe run'), per \
          workload and end-to-end metric of ./BENCHMARK.json. Exit 1 when a \
          metric's median is worse than the base's by more than its bound \
          and every change run is worse than every base run, when a change \
          value is NaN or missing, when a change run is incorrect or when \
          its failed share rose; exit 2 on unreadable input or runs from \
          different runners.")
    Term.(
      const run
      $ runs "base" ~doc:"A base results.json (repeat for more runs)."
      $ runs "change" ~doc:"A change results.json (repeat for more runs).")

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Benchmark utilities: compare bench/perf runs (the perf gate).")
    [ bench_compare_cmd ]

(* -- chaos -------------------------------------------------------------- *)

module Chaos = Mitos_chaos

let chaos_cmd =
  let run preset_name plan_file list seed nodes tenants duration transport
      rate attack_rate slots report_out =
    if list then begin
      List.iter
        (fun (name, doc) -> Printf.printf "%-14s %s\n" name doc)
        Chaos.Judge.presets;
      exit 0
    end;
    let scenario =
      match Chaos.Judge.preset preset_name with
      | Some s -> s
      | None ->
        or_die
          (Error
             (Printf.sprintf "unknown preset %S (try --list-presets)"
                preset_name))
    in
    let plan, scenario_name =
      match plan_file with
      | None -> (scenario.Chaos.Judge.plan, scenario.Chaos.Judge.scenario_name)
      | Some path ->
        let ic = open_in_bin path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (match Chaos.Plan.parse text with
         | Ok p -> (p, Filename.remove_extension (Filename.basename path))
         | Error msg -> or_die (Error (path ^ ": " ^ msg)))
    in
    let transport =
      match transport with
      | "mem" -> Chaos.Fleetsim.Mem
      | "tcp" -> Chaos.Fleetsim.Tcp
      | other ->
        or_die (Error (Printf.sprintf "unknown transport %S (mem|tcp)" other))
    in
    let config = scenario.Chaos.Judge.config in
    let gen =
      {
        config.Chaos.Fleetsim.gen with
        Chaos.Tenantgen.seed;
        tenants =
          Option.value tenants
            ~default:config.Chaos.Fleetsim.gen.Chaos.Tenantgen.tenants;
        duration =
          Option.value duration
            ~default:config.Chaos.Fleetsim.gen.Chaos.Tenantgen.duration;
        rate_rps =
          Option.value rate
            ~default:config.Chaos.Fleetsim.gen.Chaos.Tenantgen.rate_rps;
        attack_rate =
          Option.value attack_rate
            ~default:config.Chaos.Fleetsim.gen.Chaos.Tenantgen.attack_rate;
      }
    in
    let config =
      {
        config with
        Chaos.Fleetsim.gen;
        transport;
        nodes = Option.value nodes ~default:config.Chaos.Fleetsim.nodes;
        estimator_slots =
          Option.value slots ~default:config.Chaos.Fleetsim.estimator_slots;
      }
    in
    let scenario =
      { scenario with Chaos.Judge.scenario_name; config; plan }
    in
    let report = or_die (Chaos.Judge.run scenario) in
    print_string (Chaos.Judge.render report);
    (match report_out with
    | None -> ()
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Chaos.Judge.to_json report));
      Printf.printf "report written to %s\n" path);
    exit (Chaos.Judge.exit_code report)
  in
  let preset_arg =
    Arg.(
      value
      & opt string "steady"
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Preset scenario: traffic shape, fault plan and SLO bar \
             (see --list-presets).")
  in
  let plan_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"PLAN"
          ~doc:
            "Fault-plan file in the DESIGN section-16 DSL (e.g. \
             `kill@t=5s node=2'); replaces the preset's plan.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list-presets" ] ~doc:"List preset scenarios and exit.")
  in
  let nodes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes" ] ~docv:"N" ~doc:"Fleet size (servers).")
  in
  let tenants_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenants" ] ~docv:"N" ~doc:"Tenant population.")
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Virtual scenario length.")
  in
  let transport_arg =
    Arg.(
      value
      & opt string "mem"
      & info [ "transport" ] ~docv:"mem|tcp"
          ~doc:
            "Fleet transport: in-process loopback (deterministic \
             reports) or real TCP servers on 127.0.0.1.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Mean fleet-wide events per virtual second.")
  in
  let attack_rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "attack-rate" ] ~docv:"P"
          ~doc:"Per-event probability of an injected attack run.")
  in
  let slots_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slots" ] ~docv:"N" ~doc:"Estimator slots per node.")
  in
  let report_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-out" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic JSON report (same seed, same \
             bytes) to $(docv).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a deterministic multi-tenant chaos scenario against a real \
          fleet — seeded tenants, fault injection per a plan DSL, judged \
          by SLO (detection recall vs a propagate-all oracle, over-taint, \
          virtual p99, unexpected retry exhaustions, burn-rate alerts, \
          estimator re-sync). Exit 0 when every SLO holds, 1 on a \
          violation, 2 on setup errors.")
    Term.(
      const run $ preset_arg $ plan_arg $ list_arg $ seed_arg $ nodes_arg
      $ tenants_arg $ duration_arg $ transport_arg $ rate_arg
      $ attack_rate_arg $ slots_arg $ report_out_arg)

(* -- version ------------------------------------------------------------- *)

let version_cmd =
  let run () = print_endline Version.version in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the version (single source of truth: dune-project, shared \
          with mitos.opam and --version).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "mitos-cli" ~version:Version.version
      ~doc:
        "MITOS: optimal decisioning for indirect flow propagation in DIFT \
         systems (ICDCS 2020 reproduction)."
  in
  exit
    (protected (fun () ->
         Cmd.eval ~catch:false
           (Cmd.group info
              [ list_cmd; run_cmd; experiment_cmd; record_cmd; replay_cmd;
                inspect_cmd; disasm_cmd; map_cmd; why_cmd; solve_cmd;
                trace_cmd; sites_cmd; litmus_cmd; asm_cmd; attack_cmd;
                audit_cmd; serve_cmd; watch_cmd; alerts_cmd; fleet_cmd;
                serve_decisions_cmd; coordinator_cmd; node_cmd; cluster_cmd;
                loadgen_cmd; profile_cmd; bench_cmd; chaos_cmd;
                version_cmd ])))
