module Minijson = Mitos_util.Minijson
module Alerts = Mitos_obs.Alerts
module Attack = Mitos_workload.Attack

type slo = {
  min_recall : float;
  max_over_taint : float;
  max_p99_ns : float;
  expect_alert : bool option;
}

let default_slo =
  {
    min_recall = 1.0;
    max_over_taint = 1.0;
    max_p99_ns = 50e6;
    expect_alert = None;
  }

type scenario = {
  scenario_name : string;
  config : Fleetsim.config;
  plan : Plan.t;
  slo : slo;
}

type check = { check_name : string; ok : bool; detail : string }
type verdict = Pass | Violation

type report = {
  scenario : scenario;
  outcome : Fleetsim.outcome;
  checks : check list;
  verdict : verdict;
}

(* ---------- scoring ---------- *)

let recall_of (o : Fleetsim.outcome) =
  let detectable =
    List.length (List.filter (fun r -> r.Fleetsim.oracle_detected) o.attacks)
  in
  let detected =
    List.length
      (List.filter
         (fun r -> r.Fleetsim.oracle_detected && r.Fleetsim.detected)
         o.attacks)
  in
  let recall =
    if detectable = 0 then 1.0
    else float_of_int detected /. float_of_int detectable
  in
  (recall, detected, detectable)

let over_taint_of (o : Fleetsim.outcome) =
  List.fold_left
    (fun acc r ->
      if r.Fleetsim.oracle_tainted_bytes = 0 then acc
      else
        Float.max acc
          (float_of_int r.Fleetsim.tainted_bytes
          /. float_of_int r.Fleetsim.oracle_tainted_bytes))
    0.0 o.attacks

let unexpected_exhaustions (o : Fleetsim.outcome) =
  List.filter (fun e -> not e.Fleetsim.ex_expected) o.exhaustions

let expect_alert scenario =
  match scenario.slo.expect_alert with
  | Some b -> b
  | None ->
      Plan.expects_outage_alert scenario.plan
        ~duration:scenario.config.Fleetsim.gen.Tenantgen.duration

(* A node allowed to be unreadable at the end: the plan left it dead. *)
let dead_at_end scenario node =
  Plan.killed scenario.plan ~node
    ~at:scenario.config.Fleetsim.gen.Tenantgen.duration

let checks_of scenario (o : Fleetsim.outcome) =
  let slo = scenario.slo in
  let recall, detected, detectable = recall_of o in
  let over_taint = over_taint_of o in
  let p99 = Fleetsim.quantile_ns o.latencies_ns 0.99 in
  let unexpected = List.length (unexpected_exhaustions o) in
  let alert_expected = expect_alert scenario in
  let sync_bad =
    List.filter
      (fun s ->
        match s.Fleetsim.final with
        | None -> not (dead_at_end scenario s.Fleetsim.sync_node)
        | Some f -> Float.abs (f -. s.Fleetsim.intended) > 1e-6)
      o.syncs
  in
  [
    {
      check_name = "recall";
      ok = recall >= slo.min_recall;
      detail =
        (if detectable = 0 then "no oracle-detectable attacks injected"
         else
           Printf.sprintf "%d/%d oracle-detectable attacks detected" detected
             detectable);
    };
    {
      check_name = "over_taint";
      ok = over_taint <= slo.max_over_taint;
      detail =
        Printf.sprintf "worst tainted/oracle ratio %.3f (bound %.3f)" over_taint
          slo.max_over_taint;
    };
    {
      check_name = "p99_latency";
      ok = p99 <= slo.max_p99_ns;
      detail =
        Printf.sprintf "virtual p99 %.0fns (bound %.0fns)" p99 slo.max_p99_ns;
    };
    {
      check_name = "retries_exhausted";
      ok = unexpected = 0;
      detail =
        Printf.sprintf "%d unexpected of %d total exhaustions" unexpected
          (List.length o.exhaustions);
    };
    {
      check_name = "alerts";
      ok =
        (if alert_expected then
           o.alerts_fired >= 1 && o.alerts_resolved >= 1 && o.alert_quiet_at_end
         else o.alerts_fired = 0 && o.alert_quiet_at_end);
      detail =
        Printf.sprintf "expected=%b fired=%d resolved=%d quiet_at_end=%b"
          alert_expected o.alerts_fired o.alerts_resolved o.alert_quiet_at_end;
    };
    {
      check_name = "resync";
      ok = sync_bad = [];
      detail =
        (match sync_bad with
        | [] ->
            Printf.sprintf "%d node globals match intent (%d resync publishes)"
              (List.length o.syncs) o.resync_publishes
        | s :: _ ->
            Printf.sprintf "node %d final %s vs intended %.6f"
              s.Fleetsim.sync_node
              (match s.Fleetsim.final with
              | None -> "unreadable"
              | Some f -> Printf.sprintf "%.6f" f)
              s.Fleetsim.intended);
    };
  ]

let run scenario =
  match Fleetsim.run scenario.config ~plan:scenario.plan with
  | Error _ as e -> e
  | Ok outcome ->
      let checks = checks_of scenario outcome in
      let verdict =
        if List.for_all (fun c -> c.ok) checks then Pass else Violation
      in
      Ok { scenario; outcome; checks; verdict }

let exit_code report = match report.verdict with Pass -> 0 | Violation -> 1

(* ---------- the deterministic JSON report ---------- *)

let num f = Minijson.Num f
let int i = Minijson.Num (float_of_int i)
let str s = Minijson.Str s
let bool b = Minijson.Bool b

let to_json report =
  let o = report.outcome in
  let s = report.scenario in
  let cfg = s.config in
  let gen = cfg.Fleetsim.gen in
  let recall, detected, detectable = recall_of o in
  let counts = o.injected in
  let attacks_rows =
    List.map
      (fun (r : Fleetsim.attack_row) ->
        Minijson.Obj
          [
            ("at_s", num r.attack_at);
            ("tenant", int r.attack_tenant);
            ("node", int r.attack_node);
            ("variant", str (Attack.variant_name r.variant));
            ("detected", bool r.detected);
            ("tainted_bytes", int r.tainted_bytes);
            ("oracle_detected", bool r.oracle_detected);
            ("oracle_tainted_bytes", int r.oracle_tainted_bytes);
          ])
      o.attacks
  in
  let exhaustion_rows =
    List.map
      (fun (e : Fleetsim.exhaustion) ->
        Minijson.Obj
          [
            ("at_s", num e.ex_at);
            ("tenant", int e.ex_tenant);
            ("node", int e.ex_node);
            ("expected", bool e.ex_expected);
            ( "class",
              str
                (match e.ex_class with
                | `Refused -> "refused"
                | `Timeout -> "timeout"
                | `Unknown -> "unknown") );
          ])
      o.exhaustions
  in
  let incident_rows =
    List.map
      (fun (i : Alerts.incident) ->
        Minijson.Obj
          [
            ("seq", int i.Alerts.seq);
            ("at_s", num i.Alerts.at);
            ("alert", str i.Alerts.alert);
            ( "transition",
              str (Alerts.transition_to_string i.Alerts.transition) );
            ("severity", str (Alerts.severity_to_string i.Alerts.severity));
          ])
      o.incidents
  in
  let sync_rows =
    List.map
      (fun (s' : Fleetsim.node_sync) ->
        Minijson.Obj
          [
            ("node", int s'.Fleetsim.sync_node);
            ("intended", num s'.Fleetsim.intended);
            ( "final",
              match s'.Fleetsim.final with
              | None -> Minijson.Null
              | Some f -> num f );
            ( "ok",
              bool
                (match s'.Fleetsim.final with
                | None -> dead_at_end s s'.Fleetsim.sync_node
                | Some f -> Float.abs (f -. s'.Fleetsim.intended) <= 1e-6) );
          ])
      o.syncs
  in
  let check_rows =
    List.map
      (fun c ->
        Minijson.Obj
          [
            ("name", str c.check_name);
            ("ok", bool c.ok);
            ("detail", str c.detail);
          ])
      report.checks
  in
  let doc =
    Minijson.Obj
      [
        ("schema", str "mitos-chaos-report/1");
        ("scenario", str s.scenario_name);
        ("seed", int gen.Tenantgen.seed);
        ( "transport",
          str (match cfg.Fleetsim.transport with Mem -> "mem" | Tcp -> "tcp") );
        ("nodes", int cfg.Fleetsim.nodes);
        ("estimator_slots", int cfg.Fleetsim.estimator_slots);
        ("tenants", int gen.Tenantgen.tenants);
        ("duration_s", num gen.Tenantgen.duration);
        ( "plan",
          Minijson.List
            (List.map (fun e -> str (Plan.event_to_string e)) s.plan) );
        ( "traffic",
          Minijson.Obj
            [
              ("events", int o.events_total);
              ("decide_events", int o.decide_events);
              ("decisions", int o.decisions);
              ("publishes", int o.publishes);
              ("deferred_publishes", int o.deferred_publishes);
              ("resync_publishes", int o.resync_publishes);
              ("failovers", int o.failovers);
              ("remote_rejects", int o.remote_rejects);
              ("wire_rejects", int o.wire_rejects);
              ("bad_replies", int o.bad_replies);
              ("ping_rejects", int o.ping_rejects);
              ("client_retries", int o.client_retries_total);
              ("client_retries_exhausted", int o.client_exhausted_total);
            ] );
        ( "injected",
          Minijson.Obj
            [
              ("gate_calls", int counts.Gate.calls);
              ("drops", int counts.Gate.drops);
              ("corrupt_requests", int counts.Gate.corrupt_requests);
              ("corrupt_replies", int counts.Gate.corrupt_replies);
              ("truncated_replies", int counts.Gate.truncated_replies);
              ("oversized_replies", int counts.Gate.oversized_replies);
              ("refusals", int counts.Gate.refusals);
            ] );
        ( "latency_virtual_ns",
          Minijson.Obj
            [
              ("p50", num (Fleetsim.quantile_ns o.latencies_ns 0.5));
              ("p95", num (Fleetsim.quantile_ns o.latencies_ns 0.95));
              ("p99", num (Fleetsim.quantile_ns o.latencies_ns 0.99));
              ("max", num (Fleetsim.quantile_ns o.latencies_ns 1.0));
              ("samples", int (Array.length o.latencies_ns));
            ] );
        ( "attacks",
          Minijson.Obj
            [
              ("injected", int (List.length o.attacks));
              ("oracle_detectable", int detectable);
              ("detected", int detected);
              ("recall", num recall);
              ("max_over_taint_ratio", num (over_taint_of o));
              ("rows", Minijson.List attacks_rows);
            ] );
        ( "retries",
          Minijson.Obj
            [
              ("unexpected", int (List.length (unexpected_exhaustions o)));
              ("exhaustions", Minijson.List exhaustion_rows);
            ] );
        ( "alerts",
          Minijson.Obj
            [
              ("expected", bool (expect_alert s));
              ("fired", int o.alerts_fired);
              ("resolved", int o.alerts_resolved);
              ("quiet_at_end", bool o.alert_quiet_at_end);
              ("ticks", int o.ticks);
              ("down_ticks", int o.down_ticks);
              ("incidents", Minijson.List incident_rows);
            ] );
        ( "resync",
          Minijson.Obj
            [
              ("kills", int o.kills);
              ("restarts", int o.restarts);
              ("per_node", Minijson.List sync_rows);
            ] );
        ("checks", Minijson.List check_rows);
        ( "verdict",
          str (match report.verdict with Pass -> "pass" | Violation -> "fail")
        );
      ]
  in
  Minijson.render doc ^ "\n"

(* ---------- human rendering ---------- *)

let render report =
  let o = report.outcome in
  let s = report.scenario in
  let gen = s.config.Fleetsim.gen in
  let recall, detected, detectable = recall_of o in
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "chaos scenario %S: %d nodes x %d slots, %d tenants, %gs virtual (%s)\n"
    s.scenario_name s.config.Fleetsim.nodes s.config.Fleetsim.estimator_slots
    gen.Tenantgen.tenants gen.Tenantgen.duration
    (match s.config.Fleetsim.transport with Mem -> "mem" | Tcp -> "tcp");
  if s.plan = [] then addf "plan:              (no faults)\n"
  else
    List.iter (fun e -> addf "plan:              %s\n" (Plan.event_to_string e)) s.plan;
  addf "traffic:           %d events, %d decisions, %d publishes (%d deferred, %d resync)\n"
    o.events_total o.decisions o.publishes o.deferred_publishes
    o.resync_publishes;
  addf "injected:          %d drops, %d corrupt, %d truncated, %d oversized, %d refusals\n"
    o.injected.Gate.drops
    (o.injected.Gate.corrupt_requests + o.injected.Gate.corrupt_replies)
    o.injected.Gate.truncated_replies o.injected.Gate.oversized_replies
    o.injected.Gate.refusals;
  addf "typed rejects:     %d remote, %d wire, %d bad-reply, %d ping\n"
    o.remote_rejects o.wire_rejects o.bad_replies o.ping_rejects;
  addf "failovers:         %d (%d client retries, %d exhausted)\n" o.failovers
    o.client_retries_total o.client_exhausted_total;
  addf "latency (virtual): p50=%.0fns p99=%.0fns over %d samples\n"
    (Fleetsim.quantile_ns o.latencies_ns 0.5)
    (Fleetsim.quantile_ns o.latencies_ns 0.99)
    (Array.length o.latencies_ns);
  addf "detection recall:  %.3f (%d/%d oracle-detectable attacks)\n" recall
    detected detectable;
  addf "unexpected retries exhausted: %d\n"
    (List.length (unexpected_exhaustions o));
  addf "alerts:            fired=%d resolved=%d quiet_at_end=%b\n"
    o.alerts_fired o.alerts_resolved o.alert_quiet_at_end;
  addf "lifecycle:         %d kills, %d restarts, %d down ticks of %d\n"
    o.kills o.restarts o.down_ticks o.ticks;
  List.iter
    (fun c ->
      addf "slo %-18s %s  %s\n" (c.check_name ^ ":")
        (if c.ok then "ok " else "VIOLATION")
        c.detail)
    report.checks;
  addf "wall:              %.2fs (%.0f events/s)\n" o.wall_seconds
    (if o.wall_seconds > 0.0 then float_of_int o.events_total /. o.wall_seconds
     else 0.0);
  addf "verdict: %s\n"
    (match report.verdict with Pass -> "PASS" | Violation -> "FAIL");
  Buffer.contents buf

(* ---------- presets ---------- *)

let plan_exn text =
  match Plan.parse text with
  | Ok p -> p
  | Error msg -> invalid_arg ("Judge preset plan: " ^ msg)

let base = Fleetsim.default_config

let scenario ?(slo = default_slo) ~name ~config ~plan () =
  { scenario_name = name; config; plan = plan_exn plan; slo }

let steady =
  scenario ~name:"steady"
    ~config:
      {
        base with
        Fleetsim.gen =
          {
            Tenantgen.default_config with
            Tenantgen.tenants = 400;
            duration = 12.0;
            rate_rps = 300.0;
            attack_rate = 0.004;
          };
      }
    ~plan:"" ()

let kill_restart =
  scenario ~name:"kill-restart"
    ~config:
      {
        base with
        Fleetsim.gen =
          {
            Tenantgen.default_config with
            Tenantgen.tenants = 600;
            duration = 20.0;
            rate_rps = 300.0;
            attack_rate = 0.004;
          };
      }
    ~plan:"kill@t=6s node=1\nrestart@t=12s node=1\n" ()

let partition =
  scenario ~name:"partition"
    ~config:
      {
        base with
        Fleetsim.gen =
          {
            Tenantgen.default_config with
            Tenantgen.tenants = 600;
            duration = 20.0;
            rate_rps = 300.0;
            attack_rate = 0.004;
          };
      }
    ~plan:"partition@t=6s until=12s node=2\n" ()

let frame_fuzz =
  scenario ~name:"frame-fuzz"
    ~config:
      {
        base with
        Fleetsim.gen =
          {
            Tenantgen.default_config with
            Tenantgen.tenants = 400;
            duration = 15.0;
            rate_rps = 300.0;
            attack_rate = 0.004;
          };
      }
    ~plan:
      "corrupt@rate=0.02\ndrop@rate=0.01\ntruncate@rate=0.01\noversize@rate=0.005\n"
    ()

let ci =
  scenario ~name:"ci"
    ~config:
      {
        base with
        Fleetsim.gen =
          {
            Tenantgen.default_config with
            Tenantgen.tenants = 200;
            duration = 25.0;
            rate_rps = 250.0;
            attack_rate = 0.004;
          };
      }
    ~plan:"kill@t=6s node=1\nrestart@t=12s node=1\ncorrupt@rate=0.01\n" ()

let bench =
  scenario ~name:"bench"
    ~config:
      {
        base with
        Fleetsim.gen =
          {
            Tenantgen.default_config with
            Tenantgen.tenants = 800;
            duration = 10.0;
            rate_rps = 1500.0;
            attack_rate = 0.0;
          };
      }
    ~plan:
      "kill@t=3s node=1\nrestart@t=5s node=1\ncorrupt@rate=0.005\nslow@t=6s until=8s node=0 delay=1ms\n"
    ()

let all_presets =
  [
    (steady, "no faults: traffic, attacks and quiet alerts");
    (kill_restart, "kill node 1 at 6s, restart and re-sync at 12s");
    (partition, "partition node 2 for 6s; its tenants defer, others serve");
    (frame_fuzz, "corrupt/drop/truncate/oversize frames fleet-wide");
    (ci, "the CI smoke plan: kill+restart under 1% frame corruption");
    (bench, "high rate: kill+restart, corruption, slow node; no attacks");
  ]

let presets =
  List.map (fun (s, d) -> (s.scenario_name, d)) all_presets

let preset name =
  List.find_map
    (fun (s, _) -> if s.scenario_name = name then Some s else None)
    all_presets
