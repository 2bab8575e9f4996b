module J = Mitos_util.Minijson

type direction = Lower_better | Higher_better
type verdict = Pass | Unresolved | Regressed
type side = { median : float; lo : float; hi : float; missing : int }

type row = {
  workload : string;
  metric : string;
  direction : direction;
  bound : float;
  base : side;
  change : side;
  change_pct : float;
  verdict : verdict;
}

type report = {
  runner : string;
  base_runs : int;
  change_runs : int;
  rows : row list;
  skipped : string list;
  failures : string list;
}

let with_verdict v report = List.filter (fun r -> r.verdict = v) report.rows
let regressions = with_verdict Regressed
let unresolved = with_verdict Unresolved
let ok report = regressions report = [] && report.failures = []

(* -- inputs ------------------------------------------------------------- *)

type metric = { name : string; direction : direction; bound : float }

type workload = {
  name : string;
  correct : bool;
  attempted : float;
  failed : float;
  values : (string * float) list;
}

type run = { label : string; fingerprint : string; workloads : workload list }

let ( let* ) = Result.bind

let rec all = function
  | [] -> Ok []
  | r :: rest ->
    let* x = r in
    let* xs = all rest in
    Ok (x :: xs)

let str field j = Option.bind (J.member field j) J.to_string_opt
let num field j = Option.bind (J.member field j) J.to_float

let parse (label, text) =
  Result.map_error (fun msg -> label ^ ": " ^ msg) (J.parse_result text)

let spec_metrics ((label, _) as spec) =
  let* j = parse spec in
  let metric m =
    match (str "name" m, str "better" m, num "bound" m) with
    | Some name, Some ("lower" | "higher" as better), Some bound
      when bound >= 0.0 ->
      let direction =
        if better = "lower" then Lower_better else Higher_better
      in
      Ok { name; direction; bound }
    | _ -> Error (label ^ ": an end_to_end entry lacks name, better or bound")
  in
  match J.member "end_to_end" j with
  | Some (J.List ms) -> all (List.map metric ms)
  | _ -> Error (label ^ ": no end_to_end list")

let read_run ((label, _) as source) =
  let* j = parse source in
  let fail msg = Error (label ^ ": " ^ msg) in
  let workload w =
    match str "name" w with
    | None -> fail "a workload has no name"
    | Some name ->
      let values =
        match J.member "metrics" w with
        | Some (J.Obj ms) ->
          List.filter_map
            (fun (m, v) -> Option.map (fun x -> (m, x)) (num "value" v))
            ms
        | _ -> []
      in
      Ok
        {
          name;
          correct = J.member "correct" w = Some (J.Bool true);
          attempted = Option.value ~default:0.0 (num "attempted" w);
          failed = Option.value ~default:0.0 (num "failed" w);
          values;
        }
  in
  if J.member "traced" j = Some (J.Bool true) then
    fail "a traced run reports per-layer metrics only"
  else
    match (J.member "runner" j, J.member "workloads" j) with
    | Some runner, Some (J.List ws) -> (
      match (str "nproc" runner, str "cpu" runner) with
      | Some nproc, Some cpu ->
        let* workloads = all (List.map workload ws) in
        let fingerprint = Printf.sprintf "nproc=%s cpu=%S" nproc cpu in
        Ok { label; fingerprint; workloads }
      | _ -> fail "the runner fingerprint lacks nproc or cpu")
    | _ -> fail "not a bench/perf results.json (no runner or workloads)"

let same_runner = function
  | [] -> Error "no runs"
  | first :: rest -> (
    match List.find_opt (fun r -> r.fingerprint <> first.fingerprint) rest with
    | None -> Ok first.fingerprint
    | Some r ->
      Error
        (Printf.sprintf "incomparable: %s ran on %s but %s on %s" first.label
           first.fingerprint r.label r.fingerprint))

(* -- the comparison ----------------------------------------------------- *)

let find_workload run name =
  List.find_opt (fun (w : workload) -> w.name = name) run.workloads

let side runs ~workload ~metric =
  let value run =
    match
      Option.bind (find_workload run workload) (fun w ->
          List.assoc_opt metric w.values)
    with
    | Some v when not (Float.is_nan v) -> Some v
    | _ -> None
  in
  let values = List.filter_map value runs in
  let missing = List.length runs - List.length values in
  match Array.of_list (List.sort Float.compare values) with
  | [||] -> { median = Float.nan; lo = Float.nan; hi = Float.nan; missing }
  | a ->
    let n = Array.length a in
    let median =
      if n mod 2 = 1 then a.(n / 2)
      else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    { median; lo = a.(0); hi = a.(n - 1); missing }

(* signed so that positive = moved in the bad direction *)
let bad_delta direction ~base ~change =
  match direction with
  | Lower_better -> change -. base
  | Higher_better -> base -. change

let row (m : metric) ~workload ~base ~change =
  let bad = bad_delta m.direction ~base:base.median ~change:change.median in
  let change_pct =
    (* a zero baseline has no scale for a percentage: any move counts
       in full, so it can still fail *)
    if base.median = 0.0 then
      if bad > 0.0 then infinity else if bad < 0.0 then neg_infinity else 0.0
    else bad /. base.median *. 100.0
  in
  (* every change run worse than every base run: a shift no rerun of
     unchanged code on the same runner produced *)
  let disjoint =
    match m.direction with
    | Lower_better -> change.lo > base.hi
    | Higher_better -> change.hi < base.lo
  in
  let verdict =
    if change.missing > 0 then Regressed
    else if change_pct > m.bound *. 100.0 then
      if disjoint then Regressed else Unresolved
    else Pass
  in
  { workload; metric = m.name; direction = m.direction; bound = m.bound; base;
    change; change_pct; verdict }

let failures ~base ~change names =
  let incorrect =
    List.concat_map
      (fun run ->
        List.filter_map
          (fun (w : workload) ->
            if w.correct then None
            else
              Some (Printf.sprintf "%s: correct=false in %s" w.name run.label))
          run.workloads)
      change
  in
  let totals runs name =
    List.fold_left
      (fun (failed, attempted) run ->
        match find_workload run name with
        | Some w -> (failed +. w.failed, attempted +. w.attempted)
        | None -> (failed, attempted))
      (0.0, 0.0) runs
  in
  let share (failed, attempted) =
    if attempted > 0.0 then failed /. attempted else 0.0
  in
  let rose =
    List.filter_map
      (fun name ->
        let b = totals base name and c = totals change name in
        if share c > share b then
          Some
            (Printf.sprintf
               "%s: failed share %.4g (%g of %g) above the base's %.4g (%g \
                of %g)"
               name (share c) (fst c) (snd c) (share b) (fst b) (snd b))
        else None)
      names
  in
  incorrect @ rose

let compare_sources ~spec ~base ~change =
  let* metrics = spec_metrics spec in
  if base = [] || change = [] then
    Error "need at least one base and one change run"
  else
    let* base = all (List.map read_run base) in
    let* change = all (List.map read_run change) in
    let* runner = same_runner (base @ change) in
    let names =
      List.fold_left
        (fun names run ->
          List.fold_left
            (fun names (w : workload) ->
              if List.mem w.name names then names else names @ [ w.name ])
            names run.workloads)
        [] (base @ change)
    in
    let rows, skipped =
      List.fold_left
        (fun acc workload ->
          List.fold_left
            (fun (rows, skipped) (m : metric) ->
              let b = side base ~workload ~metric:m.name in
              if Float.is_nan b.median then
                (rows, skipped @ [ workload ^ " " ^ m.name ])
              else
                let c = side change ~workload ~metric:m.name in
                (rows @ [ row m ~workload ~base:b ~change:c ], skipped))
            acc metrics)
        ([], []) names
    in
    Ok
      {
        runner;
        base_runs = List.length base;
        change_runs = List.length change;
        rows;
        skipped;
        failures = failures ~base ~change names;
      }

let labelled side texts =
  List.mapi
    (fun i text -> (Printf.sprintf "%s run %d" side (i + 1), text))
    texts

let of_json ~spec ~base ~change =
  compare_sources ~spec:("BENCHMARK.json", spec) ~base:(labelled "base" base)
    ~change:(labelled "change" change)

let of_files ~spec ~base ~change =
  let read path =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok (path, text)
    | exception Sys_error msg -> Error msg
  in
  let* spec = read spec in
  let* base = all (List.map read base) in
  let* change = all (List.map read change) in
  compare_sources ~spec ~base ~change

(* -- rendering ---------------------------------------------------------- *)

let fmt v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let side_text s =
  if Float.is_nan s.median then "missing"
  else Printf.sprintf "%s [%s, %s]" (fmt s.median) (fmt s.lo) (fmt s.hi)

let change_text r =
  if r.change.missing > 0 then
    Printf.sprintf "NaN/missing in %d run(s)" r.change.missing
  else if r.base.median = 0.0 then
    Printf.sprintf "%+.2f abs"
      (bad_delta r.direction ~base:r.base.median ~change:r.change.median)
  else Printf.sprintf "%+.1f%%" r.change_pct

let names rows =
  String.concat ", " (List.map (fun r -> r.workload ^ " " ^ r.metric) rows)

let render report =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.bprintf buf fmt in
  add "runner %s; base %d run(s), change %d run(s)\n" report.runner
    report.base_runs report.change_runs;
  add "%-16s %-17s %-34s %-34s %s\n" "workload" "metric"
    "base median [min, max]" "change median [min, max]" "worse by (bound)";
  List.iter
    (fun r ->
      add "%-16s %-17s %-34s %-34s %s (%.0f%%)%s\n" r.workload r.metric
        (side_text r.base) (side_text r.change) (change_text r)
        (r.bound *. 100.0)
        (match r.verdict with
        | Pass -> ""
        | Unresolved -> "  unresolved: ranges overlap"
        | Regressed -> "  << REGRESSION"))
    report.rows;
  if report.skipped <> [] then
    add "skipped (no base value): %s\n" (String.concat ", " report.skipped);
  List.iter (fun f -> add "FAIL: %s\n" f) report.failures;
  (match unresolved report with
  | [] -> ()
  | rows ->
    add
      "unresolved (not failed): %d metric(s) past their bound, ranges \
       overlap: %s\n"
      (List.length rows) (names rows));
  (match regressions report with
  | [] ->
    if report.failures = [] then add "ok: no metric regressed past its bound\n"
  | rows ->
    add "REGRESSION: %d metric(s): %s\n" (List.length rows) (names rows));
  Buffer.contents buf
