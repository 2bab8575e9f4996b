module J = Mitos_util.Minijson

type direction = Lower_better | Higher_better

type row = {
  metric : string;
  direction : direction;
  old_value : float;
  new_value : float;
  change_pct : float;
  regressed : bool;
}

type report = {
  tolerance_pct : float;
  rows : row list;
  skipped : string list;
}

let gated_metrics =
  [
    ([ "alg1"; "direct_ns" ], Lower_better);
    ([ "alg1"; "fast_ns" ], Lower_better);
    ([ "alg2_batch8_space4"; "direct_ns" ], Lower_better);
    ([ "alg2_batch8_space4"; "fast_ns" ], Lower_better);
    ([ "engine_replay"; "records_per_sec" ], Higher_better);
    ([ "engine_replay"; "audit_records_per_sec" ], Higher_better);
    (* multicore-scaling rows (sharded state): parallel throughput,
       the fixed 8-task/4-domain pool speedup, and the occupancy
       balance of the 4-way sharded shadow. These compare like for
       like only when OLD and NEW come from the same class of runner
       (the CI baseline is regenerated whenever the runner changes). *)
    ([ "engine_replay"; "par_records_per_sec" ], Higher_better);
    ([ "pool"; "speedup_4x" ], Higher_better);
    ([ "shadow_shards"; "imbalance" ], Lower_better);
    ([ "net_decide_batch"; "par_requests_per_sec" ], Higher_better);
    (* decision-service round-trip over the loopback transport; a
       metric missing from an older baseline is skipped, not failed *)
    ([ "net_decide_batch"; "p50_ns" ], Lower_better);
    ([ "net_decide_batch"; "requests_per_sec" ], Higher_better);
    (* fleet federation: one scrape-and-merge round over 8 loopback
       nodes must stay cheap enough to run on a short interval *)
    ([ "fleet_scrape"; "mean_ns" ], Lower_better);
    (* burn-rate alert engine: one observe (store append + rule
       evaluation) must stay cheap enough to ride every server tick *)
    ([ "alert_eval"; "ns_per_observation" ], Lower_better);
    (* chaos fleet: sustained tenant events/s against 3 real nodes
       under the standard fault plan, and the deterministic virtual
       p99 of the same run (failover hops and slow windows priced by
       the latency model, so a routing regression moves it) *)
    ([ "fleet"; "requests_per_sec" ], Higher_better);
    ([ "fleet"; "p99_virtual_ns" ], Lower_better);
    (* profiling-layer rows: the instrumented-mutex fast path and GC
       allocation pressure of the replay hot path *)
    ([ "lock_contention"; "uncontended_pair_ns" ], Lower_better);
    ([ "gc_pressure"; "minor_words_per_record" ], Lower_better);
  ]

(* signed so that positive = moved in the bad direction *)
let bad_delta direction ~old_value ~new_value =
  match direction with
  | Lower_better -> new_value -. old_value
  | Higher_better -> old_value -. new_value

let regressions report = List.filter (fun r -> r.regressed) report.rows
let ok report = regressions report = []

let schema_marker = "mitos-bench-decisions/1"

let check_schema which j =
  match Option.bind (J.member "schema" j) J.to_string_opt with
  | Some s when s = schema_marker -> Ok ()
  | Some s ->
    Error (Printf.sprintf "%s: unexpected schema %S (want %S)" which s
             schema_marker)
  | None -> Error (Printf.sprintf "%s: missing \"schema\" marker" which)

let of_json ~tolerance_pct ~old_json ~new_json =
  if tolerance_pct < 0.0 then Error "tolerance must be non-negative"
  else
    let parse which s =
      match J.parse_result s with
      | Ok j -> Ok j
      | Error msg -> Error (Printf.sprintf "%s: %s" which msg)
    in
    match (parse "OLD" old_json, parse "NEW" new_json) with
    | Error e, _ | _, Error e -> Error e
    | Ok old_j, Ok new_j -> (
      match (check_schema "OLD" old_j, check_schema "NEW" new_j) with
      | Error e, _ | _, Error e -> Error e
      | Ok (), Ok () ->
        let rows, skipped =
          List.fold_left
            (fun (rows, skipped) (path, direction) ->
              let metric = String.concat "." path in
              let value j = Option.bind (J.path path j) J.to_float in
              match (value old_j, value new_j) with
              | Some old_value, Some new_value ->
                let bad = bad_delta direction ~old_value ~new_value in
                let change_pct =
                  (* a zero baseline has no scale for a percentage:
                     any move counts in full, so it can still fail *)
                  if old_value = 0.0 then
                    if bad > 0.0 then infinity
                    else if bad < 0.0 then neg_infinity
                    else 0.0
                  else bad /. old_value *. 100.0
                in
                let row =
                  {
                    metric;
                    direction;
                    old_value;
                    new_value;
                    change_pct;
                    regressed = change_pct > tolerance_pct;
                  }
                in
                (row :: rows, skipped)
              | _ -> (rows, metric :: skipped))
            ([], []) gated_metrics
        in
        Ok { tolerance_pct; rows = List.rev rows; skipped = List.rev skipped })

let of_files ~tolerance_pct old_path new_path =
  let read path =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error msg -> Error msg
  in
  match (read old_path, read new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_json, Ok new_json -> of_json ~tolerance_pct ~old_json ~new_json

let render report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %14s %14s %9s\n" "metric" "old" "new" "change");
  List.iter
    (fun r ->
      let change =
        if r.old_value = 0.0 then
          Printf.sprintf "%+9.2f abs"
            (bad_delta r.direction ~old_value:r.old_value
               ~new_value:r.new_value)
        else Printf.sprintf "%+8.1f%%" r.change_pct
      in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %14.2f %14.2f %s%s\n" r.metric r.old_value
           r.new_value change
           (if r.regressed then "  << REGRESSION" else "")))
    report.rows;
  List.iter
    (fun m ->
      Buffer.add_string buf (Printf.sprintf "%-40s (skipped: missing)\n" m))
    report.skipped;
  let regs = regressions report in
  Buffer.add_string buf
    (if regs = [] then
       Printf.sprintf "ok: no metric regressed beyond %.1f%%\n"
         report.tolerance_pct
     else
       Printf.sprintf "REGRESSION: %d metric(s) beyond %.1f%%: %s\n"
         (List.length regs) report.tolerance_pct
         (String.concat ", " (List.map (fun r -> r.metric) regs)));
  Buffer.contents buf
