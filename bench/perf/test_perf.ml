(* Smoke test for the benchmark. Runs every workload at --scale smoke,
   untraced and traced, and checks the output against BENCHMARK.json:
   each workload emits exactly the metrics the spec names, with their
   units, every value is finite and no operation failed. Then injects
   one flipped verdict (decide_mem) and one flipped digest byte
   (replay_netbench) and checks that the output checks catch both.

   Usage: test_perf.exe PATH/TO/perf.exe PATH/TO/BENCHMARK.json *)

module Minijson = Mitos_util.Minijson

let perf =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let spec = Minijson.parse (In_channel.with_open_text Sys.argv.(2) In_channel.input_all)
let out_dir = "perf-smoke"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("FAIL: " ^ msg);
      exit 1)
    fmt

let strings field item = Option.bind (Minijson.member field item) Minijson.to_string_opt

let section name =
  match Minijson.member name spec with
  | Some (Minijson.List items) -> items
  | _ -> fail "BENCHMARK.json has no %s list" name

let names_units name =
  List.map
    (fun m ->
      match (strings "name" m, strings "unit" m) with
      | Some n, Some u -> (n, u)
      | _ -> fail "a %s entry lacks name or unit" name)
    (section name)

let workloads =
  List.map
    (fun w -> match strings "name" w with Some n -> n | None -> fail "unnamed workload")
    (section "workloads")

let capture args =
  let ic = Unix.open_process_args_in perf (Array.of_list (perf :: args)) in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> text
  | _ -> fail "perf.exe %s exited with an error" (String.concat " " args)

(* "workload metric value unit" and "workload check ... error_rate=X"
   lines, grouped by workload. *)
let check_run ~traced =
  let expected = names_units (if traced then "per_layer" else "end_to_end") in
  let args = [ "run"; "--scale"; "smoke"; "--out"; out_dir ] in
  let text = capture (if traced then args @ [ "--traced" ] else args) in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun w ->
      let emitted =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ w'; metric; value; unit ] when w' = w ->
              let v = float_of_string value in
              if not (Float.is_finite v) then fail "%s %s is not finite" w metric;
              Some (metric, unit)
            | _ -> None)
          lines
      in
      if List.sort compare emitted <> List.sort compare expected then
        fail "%s%s: emitted metrics differ from BENCHMARK.json" w
          (if traced then " (traced)" else "");
      let rate =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | w' :: "check" :: fields when w' = w ->
              List.find_map
                (fun f ->
                  match String.split_on_char '=' f with
                  | [ "error_rate"; v ] -> Some (float_of_string v)
                  | _ -> None)
                fields
            | _ -> None)
          lines
      in
      (match rate with
      | Some 0.0 -> ()
      | Some r -> fail "%s: error_rate %g" w r
      | None -> fail "%s: no check line" w);
      if traced then begin
        let path = Filename.concat out_dir (w ^ ".trace.json") in
        match
          Minijson.member "traceEvents"
            (Minijson.parse (In_channel.with_open_text path In_channel.input_all))
        with
        | Some (Minijson.List (_ :: _)) -> ()
        | _ -> fail "%s holds no trace events" path
      end)
    workloads

let check_fault w =
  let text =
    capture
      [ "one"; "--workload"; w; "--scale"; "smoke"; "--trace"; "0"; "--inject-fault" ]
  in
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim text))) in
  let j = Minijson.parse last in
  let failed = Option.bind (Minijson.member "failed" j) Minijson.to_float in
  match (Minijson.member "correct" j, failed) with
  | Some (Minijson.Bool false), Some n when n > 0.0 -> ()
  | _ -> fail "%s: an injected fault went unnoticed" w

let () =
  check_run ~traced:false;
  check_run ~traced:true;
  List.iter check_fault [ "decide_mem"; "replay_netbench" ];
  print_endline "bench/perf smoke: ok"
