(* The repo benchmark: five workloads over the replay and decision-
   service paths, the end-to-end metrics a user sees, and per-layer
   splits from a traced run. BENCHMARK.json at the repo root names the
   workloads and metrics; bench/perf/README.md explains them.

   Usage (from the repo root):
     dune exec bench/perf/perf.exe -- run [--workload NAME] [--seed N]
         [--seconds S] [--scale full|smoke] [--traced] [--out DIR]
       every workload (or one) in a fresh child process each; prints
       "workload metric value unit" lines and writes DIR/results.json
       (default DIR: _build/perf). --traced reports the per-layer
       metrics instead and writes DIR/<workload>.trace.json.
     dune exec bench/perf/perf.exe -- noise --runs K [--workload NAME]
         [--seed N] [--seconds S]
       K fresh runs per workload on seeds N..N+K-1; prints each
       end-to-end metric's median and spread next to its bound in
       ./BENCHMARK.json and exits 1 when a spread exceeds it.
     perf.exe one --workload NAME --seed N --seconds S --trace 0|1
         [--scale full|smoke] [--trace-out FILE] [--inject-fault]
       one workload in this process; the last line of output is the
       JSON result (bench/perf/run.sh runs this).
     perf.exe serve
       the tcp decision server the decide_tcp workloads start. *)

module Minijson = Mitos_util.Minijson

let workloads =
  [ "replay_netbench"; "replay_allflows"; "decide_mem"; "decide_tcp"; "decide_tcp_open" ]

let run_workload name =
  match name with
  | "replay_netbench" -> Replay_wl.run Replay_wl.Mitos
  | "replay_allflows" -> Replay_wl.run Replay_wl.Mitos_all_flows
  | "decide_mem" -> Decide_wl.run Decide_wl.Mem Decide_wl.Closed
  | "decide_tcp" -> Decide_wl.run Decide_wl.Tcp Decide_wl.Closed
  | "decide_tcp_open" -> Decide_wl.run Decide_wl.Tcp Decide_wl.Open
  | other -> failwith ("unknown workload " ^ other)

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;
  traced : bool;
  scale : Outcome.scale;
  trace_out : string option;
  out : string;
  runs : int;
  fault : bool;
}

let defaults =
  { workload = None; seed = 1; seconds = None; traced = false; scale = Outcome.Full;
    trace_out = None; out = "_build/perf"; runs = 5; fault = false }

let usage () =
  prerr_endline
    "usage: perf.exe run|noise|one|serve [--workload NAME] [--seed N] [--seconds S]\n\
    \       [--trace 0|1 | --traced] [--scale full|smoke] [--trace-out FILE]\n\
    \       [--out DIR] [--runs K] [--inject-fault]";
  exit 2

let rec parse o = function
  | [] -> o
  | "--workload" :: v :: rest ->
    if not (List.mem v workloads) then begin
      prerr_endline ("unknown workload " ^ v);
      usage ()
    end;
    parse { o with workload = Some v } rest
  | "--seed" :: v :: rest -> parse { o with seed = int_of_string v } rest
  | "--seconds" :: v :: rest -> parse { o with seconds = Some (float_of_string v) } rest
  | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with traced = v = "1" } rest
  | "--traced" :: rest -> parse { o with traced = true } rest
  | "--scale" :: "full" :: rest -> parse { o with scale = Outcome.Full } rest
  | "--scale" :: "smoke" :: rest -> parse { o with scale = Outcome.Smoke } rest
  | "--trace-out" :: v :: rest -> parse { o with trace_out = Some v } rest
  | "--out" :: v :: rest -> parse { o with out = v } rest
  | "--runs" :: v :: rest -> parse { o with runs = max 1 (int_of_string v) } rest
  | "--inject-fault" :: rest -> parse { o with fault = true } rest
  | arg :: _ ->
    prerr_endline ("bad argument " ^ arg);
    usage ()

let seconds o =
  match (o.seconds, o.scale) with
  | Some s, _ -> s
  | None, Outcome.Full -> 15.0
  | None, Outcome.Smoke -> 0.1

(* -- one workload, in this process ----------------------------------------- *)

let one o =
  let name = match o.workload with Some w -> w | None -> usage () in
  let outcome, recorders =
    run_workload name ~seed:o.seed ~scale:o.scale ~seconds:(seconds o) ~traced:o.traced
      ~fault:o.fault
  in
  if o.traced then Option.iter (fun path -> Span.write_chrome path recorders) o.trace_out;
  print_endline (Outcome.fingerprint_line ());
  print_endline (Outcome.to_json outcome ~traced:o.traced)

(* -- fresh child processes ------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let parse_result text =
  let last =
    match List.rev (String.split_on_char '\n' (String.trim text)) with
    | line :: _ -> line
    | [] -> ""
  in
  let j = Minijson.parse last in
  let num field = Option.bind (Minijson.member field j) Minijson.to_float in
  let metrics =
    match Minijson.member "metrics" j with
    | Some (Minijson.Obj fields) ->
      List.map
        (fun (name, m) ->
          ( name,
            Option.value ~default:Float.nan
              (Option.bind (Minijson.member "value" m) Minijson.to_float),
            Option.value ~default:""
              (Option.bind (Minijson.member "unit" m) Minijson.to_string_opt) ))
        fields
    | _ -> []
  in
  { correct = Minijson.member "correct" j = Some (Minijson.Bool true);
    attempted = int_of_float (Option.value ~default:0.0 (num "attempted"));
    failed = int_of_float (Option.value ~default:0.0 (num "failed")); metrics }

let child o ~name ~seed ~trace_out =
  let exe = Sys.executable_name in
  let args =
    [ exe; "one"; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.17g" (seconds o); "--trace"; (if o.traced then "1" else "0");
      "--scale"; (match o.scale with Outcome.Full -> "full" | Outcome.Smoke -> "smoke") ]
    @ match trace_out with Some path -> [ "--trace-out"; path ] | None -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> parse_result text
  | _ -> failwith (Printf.sprintf "%s (seed %d) did not finish" name seed)

let selected o = match o.workload with Some w -> [ w ] | None -> workloads

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let error_rate r = Outcome.ratio (float_of_int r.failed) (float_of_int r.attempted)

let run o =
  print_endline (Outcome.fingerprint_line ());
  mkdir_p o.out;
  let results =
    List.map
      (fun name ->
        let trace_out =
          if o.traced then Some (Filename.concat o.out (name ^ ".trace.json")) else None
        in
        let r = child o ~name ~seed:o.seed ~trace_out in
        List.iter
          (fun (metric, v, unit) -> Printf.printf "%s %s %.6g %s\n%!" name metric v unit)
          r.metrics;
        Printf.printf "%s check correct=%b attempted=%d failed=%d error_rate=%g\n%!" name
          r.correct r.attempted r.failed (error_rate r);
        (name, r))
      (selected o)
  in
  let num v = Minijson.Num v in
  let doc =
    Minijson.Obj
      [ ( "runner",
          Minijson.Obj
            (List.map (fun (k, v) -> (k, Minijson.Str v)) (Outcome.fingerprint ())) );
        ("seed", num (float_of_int o.seed)); ("seconds", num (seconds o));
        ("traced", Minijson.Bool o.traced);
        ( "workloads",
          Minijson.List
            (List.map
               (fun (name, r) ->
                 Minijson.Obj
                   [ ("name", Minijson.Str name); ("correct", Minijson.Bool r.correct);
                     ("attempted", num (float_of_int r.attempted));
                     ("failed", num (float_of_int r.failed));
                     ("error_rate", num (error_rate r));
                     ( "metrics",
                       Minijson.Obj
                         (List.map
                            (fun (m, v, unit) ->
                              ( m,
                                Minijson.Obj
                                  [ ("value", num v); ("unit", Minijson.Str unit) ] ))
                            r.metrics) ) ])
               results) ) ]
  in
  let path =
    Filename.concat o.out
      (if o.traced then "results-traced.json" else "results.json")
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Minijson.render doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path;
  if not (List.for_all (fun (_, r) -> r.correct) results) then exit 1

(* -- noise ------------------------------------------------------------------ *)

(* (name, bound) of every end-to-end metric in BENCHMARK.json. *)
let bounds () =
  let spec = "BENCHMARK.json" in
  let j = Minijson.parse (In_channel.with_open_text spec In_channel.input_all) in
  match Minijson.member "end_to_end" j with
  | Some (Minijson.List metrics) ->
    List.filter_map
      (fun m ->
        match
          ( Option.bind (Minijson.member "name" m) Minijson.to_string_opt,
            Option.bind (Minijson.member "bound" m) Minijson.to_float )
        with
        | Some name, Some bound -> Some (name, bound)
        | _ -> None)
      metrics
  | _ -> failwith (spec ^ ": no end_to_end list")

let noise o =
  print_endline (Outcome.fingerprint_line ());
  let bounds = bounds () in
  let ok = ref true in
  List.iter
    (fun name ->
      let runs =
        List.init o.runs (fun i -> child o ~name ~seed:(o.seed + i) ~trace_out:None)
      in
      if not (List.for_all (fun r -> r.correct) runs) then begin
        ok := false;
        Printf.printf "%s: a run failed its output checks\n%!" name
      end;
      List.iter
        (fun (metric, bound) ->
          let values =
            List.map
              (fun r ->
                match List.find_opt (fun (m, _, _) -> m = metric) r.metrics with
                | Some (_, v, _) -> v
                | None -> Float.nan)
              runs
          in
          let med = Outcome.median values in
          let q1, q3 = if o.runs >= 2 then Outcome.quartiles values else (med, med) in
          let spread lo hi = Outcome.ratio (hi -. lo) med in
          let iqr = spread q1 q3
          and range = spread (List.fold_left Float.min Float.infinity values)
              (List.fold_left Float.max Float.neg_infinity values) in
          let within = iqr <= bound in
          if not within then ok := false;
          Printf.printf
            "%s %s median=%.6g iqr=%.2f%% range=%.2f%% bound=%.0f%% %s\n%!" name
            metric med (100.0 *. iqr) (100.0 *. range) (100.0 *. bound)
            (if within then "ok" else "EXCEEDS"))
        bounds)
    (selected o);
  if not !ok then exit 1

let () =
  (* a dead server child must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "one" :: args -> one (parse defaults args)
  | _ :: "run" :: args -> run (parse defaults args)
  | _ :: "noise" :: args -> noise (parse defaults args)
  | [ _; "serve" ] -> Decide_wl.serve ()
  | _ -> usage ()
