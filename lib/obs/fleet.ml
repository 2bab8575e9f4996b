module Snapshot = Registry.Snapshot

type report = {
  node : string;
  healthy : bool;
  health : string;
  snapshot : Snapshot.t;
}

type fetch = unit -> (report, string) result

type node_state = {
  ns_name : string;
  fetch : fetch;
  mutable report : report option;
  mutable node_id : string;
  mutable last_seen : float;  (* nan before the first successful scrape *)
  mutable last_ok : bool;  (* did the most recent scrape attempt succeed? *)
  mutable failures : int;
  mutable last_error : string option;
  mutable prev_sample : (float * int) option;  (* (at, requests_total) *)
  mutable rate : float;  (* nan until two successful scrapes *)
}

type t = {
  nodes : node_state list;
  stale_after : float;
  fleet_slo : Alerts.t option;
  mutable last_at : float;
  mutable scrapes : int;
  mutable merged_snapshot : Snapshot.t;
  mutable last_signals : (string * float) list;
}

let default_rules =
  [ Alerts.threshold ~signal:"fleet_unreachable" ~cmp:Alerts.Le ~bound:0.0 () ]

let create ?(stale_after = 60.0) ?slo nodes =
  if nodes = [] then invalid_arg "Fleet.create: need at least one node";
  if stale_after <= 0.0 then
    invalid_arg "Fleet.create: stale_after must be positive";
  {
    nodes =
      List.map
        (fun (name, fetch) ->
          {
            ns_name = name;
            fetch;
            report = None;
            node_id = name;
            last_seen = nan;
            last_ok = false;
            failures = 0;
            last_error = None;
            prev_sample = None;
            rate = nan;
          })
        nodes;
    stale_after;
    fleet_slo = slo;
    last_at = nan;
    scrapes = 0;
    merged_snapshot = [];
    last_signals = [];
  }

let slo t = t.fleet_slo
let stale_after t = t.stale_after
let scrapes t = t.scrapes

(* -- node alert attribution --------------------------------------------- *)

(* Nodes running a burn-rate engine splice [firing: NAME severity=SEV]
   lines into their /healthz body (Telemetry.health_verdict); parsing
   them back out of [report.health] gives the fleet per-node alert
   attribution without touching the wire protocol. *)
let firing_prefix = "firing: "

let parse_firing body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         let pl = String.length firing_prefix in
         if String.length line <= pl || String.sub line 0 pl <> firing_prefix
         then None
         else
           let rest = String.sub line pl (String.length line - pl) in
           match String.index_opt rest ' ' with
           | None -> None
           | Some i ->
             let name = String.sub rest 0 i in
             let tail = String.sub rest (i + 1) (String.length rest - i - 1) in
             let sev_prefix = "severity=" in
             let sl = String.length sev_prefix in
             if
               name = ""
               || String.length tail <= sl
               || String.sub tail 0 sl <> sev_prefix
             then None
             else
               match
                 Alerts.severity_of_string
                   (String.trim
                      (String.sub tail sl (String.length tail - sl)))
               with
               | Ok sev -> Some (name, sev)
               | Error _ -> None)

(* -- snapshot probes ---------------------------------------------------- *)

let counter_sum name rows =
  List.fold_left
    (fun acc (r : Snapshot.row) ->
      match r.Snapshot.value with
      | Snapshot.Counter c when r.Snapshot.name = name -> acc + c
      | _ -> acc)
    0 rows

let gauge_sum ?label name rows =
  let matches (r : Snapshot.row) =
    r.Snapshot.name = name
    &&
    match label with
    | None -> true
    | Some (k, v) -> List.assoc_opt k r.Snapshot.labels = Some v
  in
  List.fold_left
    (fun acc (r : Snapshot.row) ->
      match r.Snapshot.value with
      | Snapshot.Gauge g when matches r -> (
        match acc with None -> Some g | Some s -> Some (s +. g))
      | _ -> acc)
    None rows

let hist_quantile ~name ~label q rows =
  let found =
    List.find_opt
      (fun (r : Snapshot.row) ->
        r.Snapshot.name = name
        && (match r.Snapshot.value with Snapshot.Hist _ -> true | _ -> false)
        &&
        let k, v = label in
        List.assoc_opt k r.Snapshot.labels = Some v)
      rows
  in
  match found with
  | Some { Snapshot.value = Snapshot.Hist h; _ } ->
    Histogram.quantile (Snapshot.to_histogram h) q
  | _ -> nan

let requests_total rows = counter_sum "mitos_net_requests_total" rows

(* -- scraping ----------------------------------------------------------- *)

let fresh t ns =
  (not (Float.is_nan ns.last_seen)) && t.last_at -. ns.last_seen <= t.stale_after

let fresh_reports t =
  List.filter_map
    (fun ns ->
      match ns.report with
      | Some r when fresh t ns -> Some (ns, r)
      | _ -> None)
    t.nodes

let compute_signals t =
  let live = fresh_reports t in
  (* reachability is about the last scrape *attempt*, not snapshot
     freshness: a node whose fetch just failed counts as unreachable
     immediately, even while its last snapshot still merges *)
  let up = List.length (List.filter (fun ns -> ns.last_ok) t.nodes) in
  let totals =
    List.map (fun (_, r) -> requests_total r.snapshot) live
  in
  let req_sum = List.fold_left ( + ) 0 totals in
  let skew =
    match totals with
    | [] -> 1.0
    | _ ->
      let mean =
        float_of_int req_sum /. float_of_int (List.length totals)
      in
      if mean <= 0.0 then 1.0
      else float_of_int (List.fold_left max 0 totals) /. mean
  in
  let p99 =
    hist_quantile ~name:"mitos_net_request_ns" ~label:("op", "decide") 0.99
      t.merged_snapshot
  in
  let over_taint =
    (* fleet over-taint: total MITOS-tainted bytes across the fleet
       against the total propagate-all bound, where nodes report the
       sweep gauges (pilot-style nodes); absent otherwise *)
    let sum name label =
      List.fold_left
        (fun acc (_, r) ->
          match gauge_sum ?label:(Option.map Fun.id label) name r.snapshot with
          | Some v -> acc +. v
          | None -> acc)
        0.0 live
    in
    let tainted =
      sum "mitos_sweep_tainted_bytes" (Some ("policy", "mitos"))
    in
    let bound = sum "mitos_sweep_over_taint_bound" None in
    if bound > 0.0 then [ ("fleet_over_taint_ratio", tainted /. bound) ]
    else []
  in
  let firing_nodes =
    List.length
      (List.filter (fun (_, r) -> parse_firing r.health <> []) live)
  in
  over_taint
  @ [
      ("fleet_nodes", float_of_int (List.length t.nodes));
      ("fleet_up", float_of_int up);
      ("fleet_unreachable", float_of_int (List.length t.nodes - up));
      ("fleet_requests_total", float_of_int req_sum);
      ("fleet_node_skew", skew);
      ("fleet_nodes_firing", float_of_int firing_nodes);
    ]
  @ (if Float.is_nan p99 then [] else [ ("fleet_decision_p99_ns", p99) ])

let scrape t ~at =
  t.last_at <- at;
  t.scrapes <- t.scrapes + 1;
  List.iter
    (fun ns ->
      match ns.fetch () with
      | Ok r ->
        ns.report <- Some r;
        ns.node_id <- r.node;
        ns.last_seen <- at;
        ns.last_ok <- true;
        ns.last_error <- None;
        let total = requests_total r.snapshot in
        (match ns.prev_sample with
        | Some (t0, c0) when at > t0 ->
          ns.rate <- float_of_int (total - c0) /. (at -. t0)
        | Some _ | None -> ());
        ns.prev_sample <- Some (at, total)
      | Error msg ->
        ns.last_ok <- false;
        ns.failures <- ns.failures + 1;
        ns.last_error <- Some msg)
    t.nodes;
  t.merged_snapshot <-
    Snapshot.merge
      (List.map (fun (ns, r) -> (ns.node_id, r.snapshot)) (fresh_reports t));
  let signals = compute_signals t in
  t.last_signals <- signals;
  Option.iter (fun slo -> Alerts.observe slo ~at signals) t.fleet_slo

let merged t = t.merged_snapshot
let signals t = t.last_signals

(* Every per-node series carries a [node] label; fleet meta-series
   (reachability, scrape count) ride alongside so the federated
   exposition is self-describing. The node labels keep every key
   distinct, so this is a plain sorted union — deliberately not
   {!Snapshot.merge}, whose gauge fallback would re-stamp the
   meta-series' own node labels. *)
let federated t =
  let per_node =
    List.filter_map
      (fun ns ->
        match ns.report with
        | Some r when fresh t ns ->
          Some (ns.node_id, Snapshot.relabel ~node:ns.node_id r.snapshot)
        | _ -> None)
      t.nodes
  in
  let meta =
    { Snapshot.name = "mitos_fleet_scrapes_total";
      labels = [];
      help = "fleet scrape rounds completed";
      value = Snapshot.Counter t.scrapes }
    :: List.map
         (fun ns ->
           { Snapshot.name = "mitos_fleet_node_up";
             labels = [ ("node", ns.node_id) ];
             help = "1 when the node's last scrape attempt succeeded";
             value = Snapshot.Gauge (if ns.last_ok then 1.0 else 0.0) })
         t.nodes
  in
  (* one gauge row per (node, firing alert): value is the severity
     rank (1 ticket / 2 page) so a flat max over the series is the
     fleet's worst severity *)
  let alert_meta =
    List.concat_map
      (fun ns ->
        match ns.report with
        | Some r when fresh t ns ->
          List.map
            (fun (alert, sev) ->
              { Snapshot.name = "mitos_fleet_alert_firing";
                labels = [ ("alert", alert); ("node", ns.node_id) ];
                help = "burn-rate alert firing on the node (severity rank)";
                value =
                  Snapshot.Gauge
                    (match sev with Alerts.Ticket -> 1.0 | Alerts.Page -> 2.0) })
            (parse_firing r.health)
        | _ -> [])
      t.nodes
  in
  Snapshot.sort_rows (meta @ alert_meta @ List.concat_map snd per_node)

(* -- verdict ------------------------------------------------------------ *)

type node_view = {
  name : string;
  node_id : string;
  up : bool;
  node_healthy : bool;
  last_seen : float;
  stale : bool;
  failures : int;
  last_error : string option;
  node_requests_total : int;
  request_rate : float;
  decide_p99_ns : float;
  occupancy : float;
  node_firing : (string * Alerts.severity) list;
}

let view t ns =
  let up = ns.last_ok in
  let node_healthy =
    match ns.report with Some r -> r.healthy | None -> false
  in
  let snapshot_field f default =
    match ns.report with Some r -> f r.snapshot | None -> default
  in
  {
    name = ns.ns_name;
    node_id = ns.node_id;
    up;
    node_healthy;
    last_seen = ns.last_seen;
    stale = (not (Float.is_nan ns.last_seen)) && not (fresh t ns);
    failures = ns.failures;
    last_error = ns.last_error;
    node_requests_total = snapshot_field requests_total 0;
    request_rate = ns.rate;
    decide_p99_ns =
      snapshot_field
        (hist_quantile ~name:"mitos_net_request_ns" ~label:("op", "decide")
           0.99)
        nan;
    occupancy =
      snapshot_field
        (fun rows ->
          match gauge_sum "mitos_shadow_shard_occupancy" rows with
          | Some v -> v
          | None -> nan)
        nan;
    node_firing =
      (match ns.report with Some r -> parse_firing r.health | None -> []);
  }

let nodes t = List.map (view t) t.nodes

(* The worst verdict wins: an unreachable or stale node, a node whose
   own SLO is in breach, or a breached fleet-level rule each force
   503; the status line names the first offender. *)
(* Worst firing alert of a node: highest severity, first in reported
   order among those. *)
let worst_firing = function
  | [] -> None
  | (name, sev) :: rest ->
    Some
      (List.fold_left
         (fun (bn, bs) (n, s) ->
           if Alerts.worse s bs = s && s <> bs then (n, s) else (bn, bs))
         (name, sev) rest)

let offenders t =
  List.filter_map
    (fun ns ->
      let v = view t ns in
      if not v.up then
        Some (v.node_id, if v.stale then "stale" else "unreachable")
      else if not v.node_healthy then
        match worst_firing v.node_firing with
        | Some (alert, _) -> Some (v.node_id, "alert " ^ alert)
        | None -> Some (v.node_id, "breach")
      else None)
    t.nodes

let healthy t =
  offenders t = []
  && match t.fleet_slo with None -> true | Some slo -> Alerts.healthy slo

let status_code t = if healthy t then 200 else 503

let render_health t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (match (offenders t, t.fleet_slo) with
    | (node, why) :: _, _ ->
      Printf.sprintf "status: breach (node %s %s)\n" node why
    | [], Some slo -> (
      match (Alerts.breaching slo, Alerts.firing slo) with
      | (r, _) :: _, _ ->
        Printf.sprintf "status: breach (fleet rule %s)\n"
          (Alerts.rule_to_string r)
      | [], (r, _) :: _ ->
        Printf.sprintf "status: breach (fleet alert %s)\n" r.Alerts.alert_name
      | [], [] -> "status: ok\n")
    | [], None -> "status: ok\n");
  List.iter
    (fun ns ->
      let v = view t ns in
      let verdict =
        if not v.up then
          Printf.sprintf "%s%s"
            (if v.stale then "STALE" else "UNREACHABLE")
            (match v.last_error with
            | Some msg -> Printf.sprintf " (%s)" msg
            | None -> "")
        else if v.node_healthy then "ok"
        else "BREACH"
      in
      Buffer.add_string buf
        (Printf.sprintf "node %s  %s  last_seen %s  requests %d\n" v.node_id
           verdict
           (Registry.fmt_value v.last_seen)
           v.node_requests_total);
      List.iter
        (fun (alert, sev) ->
          Buffer.add_string buf
            (Printf.sprintf "  firing: %s severity=%s node=%s\n" alert
               (Alerts.severity_to_string sev)
               v.node_id))
        v.node_firing)
    t.nodes;
  Option.iter
    (fun slo ->
      Buffer.add_string buf "fleet rules:\n";
      Buffer.add_string buf (Alerts.render_rules slo);
      if Alerts.has_burn_rules slo then begin
        Buffer.add_string buf "fleet alerts:\n";
        let lines = Alerts.render_firing slo in
        Buffer.add_string buf (if lines = "" then "(none firing)\n" else lines)
      end)
    t.fleet_slo;
  Buffer.contents buf

(* -- /fleet.json -------------------------------------------------------- *)

let json_opt_num v =
  if Float.is_nan v || v = infinity || v = neg_infinity then "null"
  else Registry.fmt_value v

let node_json t ns =
  let v = view t ns in
  let fields =
    [
      Printf.sprintf "\"decide_p99_ns\":%s" (json_opt_num v.decide_p99_ns);
      Printf.sprintf "\"failures\":%d" v.failures;
      Printf.sprintf "\"firing\":[%s]"
        (String.concat ","
           (List.map
              (fun (alert, sev) ->
                Printf.sprintf "{\"alert\":%s,\"severity\":%s}"
                  (Registry.json_string alert)
                  (Registry.json_string (Alerts.severity_to_string sev)))
              v.node_firing));
      Printf.sprintf "\"healthy\":%b" v.node_healthy;
      Printf.sprintf "\"last_error\":%s"
        (match v.last_error with
        | None -> "null"
        | Some msg -> Registry.json_string msg);
      Printf.sprintf "\"last_seen\":%s" (json_opt_num v.last_seen);
      Printf.sprintf "\"node\":%s" (Registry.json_string v.node_id);
      Printf.sprintf "\"occupancy\":%s" (json_opt_num v.occupancy);
      Printf.sprintf "\"request_rate\":%s" (json_opt_num v.request_rate);
      Printf.sprintf "\"requests_total\":%d" v.node_requests_total;
      Printf.sprintf "\"snapshot\":%s"
        (match ns.report with
        | Some r -> Snapshot.to_json r.snapshot
        | None -> "null");
      Printf.sprintf "\"stale\":%b" v.stale;
      Printf.sprintf "\"up\":%b" v.up;
    ]
  in
  "{" ^ String.concat "," fields ^ "}"

(* Keys sorted at every level; numbers through the canonical
   formatter; node array in configured order. Under mem:// transports
   and caller-supplied scrape times this is byte-deterministic. *)
let fleet_json t =
  Printf.sprintf
    "{\"alerts\":%s,\"healthy\":%b,\"merged\":%s,\"nodes\":[%s],\
     \"scrapes\":%d,\"signals\":{%s},\"stale_after\":%s}"
    (match t.fleet_slo with
    | Some slo when Alerts.has_burn_rules slo -> Alerts.to_json slo
    | Some _ | None -> "null")
    (healthy t)
    (Snapshot.to_json t.merged_snapshot)
    (String.concat "," (List.map (node_json t) t.nodes))
    t.scrapes
    (String.concat ","
       (List.map
          (fun (k, v) ->
            Printf.sprintf "%s:%s" (Registry.json_string k) (json_opt_num v))
          (List.sort (fun (a, _) (b, _) -> String.compare a b) t.last_signals)))
    (Registry.fmt_value t.stale_after)

(* -- exposition --------------------------------------------------------- *)

let routes t =
  [
    Server.route ~file:"metrics.prom"
      ~describe:"federated Prometheus exposition (node-labelled)" "/metrics"
      (fun () -> Server.prometheus (Snapshot.to_prometheus (federated t)));
    Server.route ~file:"fleet.json"
      ~describe:"per-node rollup + merged fleet snapshot" "/fleet.json"
      (fun () -> Server.json (fleet_json t));
    Server.route ~file:"healthz.txt"
      ~describe:"worst-of-fleet SLO verdict" "/healthz" (fun () ->
        Server.text ~status:(status_code t) (render_health t));
  ]
  @ match t.fleet_slo with None -> [] | Some slo -> Alerts.routes slo
