module Rng = Mitos_util.Rng
module Tag = Mitos_tag.Tag
module Tag_type = Mitos_tag.Tag_type
module Transport = Mitos_net.Transport
module Client = Mitos_net.Client
module Server = Mitos_net.Server
module Wire = Mitos_net.Wire
module Registry = Mitos_obs.Registry
module Alerts = Mitos_obs.Alerts
module Audit = Mitos_obs.Audit
module Attack = Mitos_workload.Attack
module Workload = Mitos_workload.Workload
module Engine = Mitos_dift.Engine
module Metrics = Mitos_dift.Metrics
module Policies = Mitos_dift.Policies
module Calib = Mitos_experiments.Calib

type transport = Mem | Tcp

type config = {
  nodes : int;
  estimator_slots : int;
  transport : transport;
  workers : int;
  gen : Tenantgen.config;
  batch : int;
  candidates : int;
  space : int;
  client_retries : int;
  tick_every : float;
}

let default_config =
  {
    nodes = 3;
    estimator_slots = 8;
    transport = Mem;
    workers = 2;
    gen = Tenantgen.default_config;
    batch = 8;
    candidates = 6;
    space = 4;
    client_retries = 1;
    tick_every = 1.0;
  }

type attack_row = {
  attack_at : float;
  attack_tenant : int;
  attack_node : int;
  variant : Attack.variant;
  detected : bool;
  tainted_bytes : int;
  oracle_detected : bool;
  oracle_tainted_bytes : int;
}

type exhaustion = {
  ex_at : float;
  ex_tenant : int;
  ex_node : int;
  ex_expected : bool;
  ex_class : [ `Refused | `Timeout | `Unknown ];
}

type node_sync = {
  sync_node : int;
  intended : float;
  final : float option;
}

type outcome = {
  events_total : int;
  decide_events : int;
  decisions : int;
  publishes : int;
  deferred_publishes : int;
  resync_publishes : int;
  remote_rejects : int;
  wire_rejects : int;
  bad_replies : int;
  failovers : int;
  ping_rejects : int;
  kills : int;
  restarts : int;
  attacks : attack_row list;
  exhaustions : exhaustion list;
  injected : Gate.counts;
  latencies_ns : float array;
  client_retries_total : int;
  client_exhausted_total : int;
  syncs : node_sync list;
  incidents : Alerts.incident list;
  alerts_fired : int;
  alerts_resolved : int;
  alert_quiet_at_end : bool;
  ticks : int;
  down_ticks : int;
  audit : Audit.t;
  wall_seconds : float;
}

let outage_alert_name = "fleet_outage"

(* Loopback names must be unique across sequential fleets in one
   process; the counter never reaches any report field. *)
let fleet_counter = ref 0

let client_max_frame = 65536

(* The virtual latency model: a fixed service floor, per-decision
   marginal cost, any slow-window delay the gates accrued, and a
   reconnect penalty per failover hop. Entirely virtual — wall time
   never enters. *)
let base_ns = 20_000.0
let per_decision_ns = 1_500.0
let failover_ns = 300_000.0

let quantile_ns sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ---------- nodes ---------- *)

type node = {
  idx : int;
  up_name : string;  (* mem-mode upstream loopback name *)
  mutable server : Server.t option;
  mutable listener : Server.listener option;
  mutable upstream_conn : Transport.conn option;  (* tcp mode *)
  mutable gate : Gate.t option;
  mutable client : Client.t option;
}

type st = {
  cfg : config;
  plan : Plan.t;
  nodes : node array;
  clock : float ref;
  registry : Registry.t;
  audit : Audit.t;
  alerts : Alerts.t;
  mix : Rng.t array;
  intended : float option array array;  (* node -> slot -> last value *)
  mutable last_global : float;
  oracle : (Attack.variant * int, Metrics.summary) Hashtbl.t;
  (* counters *)
  mutable decide_events : int;
  mutable decisions : int;
  mutable publishes : int;
  mutable deferred : int;
  mutable resyncs : int;
  mutable remote_rejects : int;
  mutable wire_rejects : int;
  mutable bad_replies : int;
  mutable failovers : int;
  mutable ping_rejects : int;
  mutable kills : int;
  mutable restarts : int;
  mutable attacks : attack_row list;
  mutable exhaustions : exhaustion list;
  mutable latencies : float list;
  mutable ticks : int;
  mutable down_ticks : int;
  mutable fired : int;
  mutable resolved : int;
}

let server_config cfg idx =
  {
    Server.default_config with
    workers = (match cfg.transport with Mem -> 0 | Tcp -> cfg.workers);
    nodes = cfg.estimator_slots;
    node_id = Printf.sprintf "chaos%d" idx;
  }

let start_node st node =
  let server = Server.create ~config:(server_config st.cfg node.idx) ~params:Calib.attack_params () in
  let endpoint =
    match st.cfg.transport with
    | Mem -> Transport.Memory node.up_name
    | Tcp -> Transport.Tcp { host = "127.0.0.1"; port = 0 }
  in
  let listener = Server.start server endpoint in
  node.server <- Some server;
  node.listener <- Some listener

let stop_node st node =
  (match node.upstream_conn with
  | Some c ->
      Transport.close c;
      node.upstream_conn <- None
  | None -> ());
  (match node.listener with
  | Some l ->
      Server.stop l;
      node.listener <- None
  | None -> ());
  node.server <- None;
  ignore st

(* What the gate calls to reach the real node. In mem mode this is a
   dynamic loopback lookup (Server.stop unregisters it, so a killed
   node reads as None); in tcp mode a lazily (re)dialled socket. Both
   report "down" the same way, so the two transports inject
   byte-identical fault streams. *)
let upstream_of st node () =
  match (node.server, node.listener) with
  | None, _ | _, None -> None
  | Some _, Some listener -> (
      match st.cfg.transport with
      | Mem -> Transport.Loopback.handler node.up_name
      | Tcp ->
          Some
            (fun body ->
              let conn =
                match node.upstream_conn with
                | Some c -> c
                | None -> (
                    match Transport.connect (Server.endpoint listener) with
                    | Ok c ->
                        node.upstream_conn <- Some c;
                        c
                    | Error msg -> raise (Gate.Down msg))
              in
              let sever msg =
                Transport.close conn;
                node.upstream_conn <- None;
                raise (Gate.Down msg)
              in
              match Transport.send conn body with
              | Error msg -> sever msg
              | Ok () -> (
                  match Transport.recv conn with
                  | Ok reply -> reply
                  | Error e -> sever (Wire.error_to_string e))))

(* ---------- request helpers ---------- *)

let gen_tag rng = Tag.make (Rng.pick_list rng Tag_type.all) (Rng.int rng 10_000)

let gen_decide rng cfg : Wire.decide_request =
  let n = 1 + Rng.int rng (max 1 cfg.candidates) in
  let candidates = List.init n (fun _ -> (gen_tag rng, Rng.int rng 64)) in
  {
    space = Rng.int rng (cfg.space + 1);
    pollution = Rng.float rng 1000.0;
    candidates;
  }

let home_of st tenant = tenant mod st.cfg.nodes
let slot_of st tenant = tenant / st.cfg.nodes mod st.cfg.estimator_slots

let client_of st n =
  match st.nodes.(n).client with
  | Some c -> c
  | None -> assert false (* driver clients live for the whole run *)

let take_delays st =
  Array.fold_left
    (fun acc node ->
      match node.gate with Some g -> acc +. Gate.take_delay g | None -> acc)
    0.0 st.nodes

let classify_exhaustion last = Transport.connect_failure last

let record_exhaustion st ~tenant ~node ~expected ~last =
  st.exhaustions <-
    {
      ex_at = !(st.clock);
      ex_tenant = tenant;
      ex_node = node;
      ex_expected = expected;
      ex_class = classify_exhaustion last;
    }
    :: st.exhaustions;
  Audit.record_note st.audit
    (Printf.sprintf "chaos exhausted tenant=%d node=%d expected=%b" tenant node
       expected)

(* Failover order for a tenant: home first, then the ring. *)
let ring st home = List.init st.cfg.nodes (fun i -> (home + i) mod st.cfg.nodes)

let all_down st ~at =
  List.for_all
    (fun n -> Plan.down st.plan ~node:n ~at)
    (List.init st.cfg.nodes Fun.id)

(* ---------- event execution ---------- *)

let run_decide st ev =
  let tenant = ev.Tenantgen.tenant in
  let home = home_of st tenant in
  let at = !(st.clock) in
  st.decide_events <- st.decide_events + 1;
  let reqs = List.init st.cfg.batch (fun _ -> gen_decide st.mix.(tenant) st.cfg) in
  let finish ~hops =
    let delay = take_delays st in
    let ns =
      base_ns
      +. (per_decision_ns *. float_of_int st.cfg.batch)
      +. (delay *. 1e9)
      +. (failover_ns *. float_of_int hops)
    in
    st.latencies <- ns :: st.latencies
  in
  if Plan.partitioned st.plan ~node:home ~at then begin
    (* a partition cuts the tenant's whole region: no failover *)
    match Client.decide (client_of st home) reqs with
    | Ok replies ->
        st.decisions <- st.decisions + List.length replies;
        finish ~hops:0
    | Error (Remote _) -> st.remote_rejects <- st.remote_rejects + 1
    | Error (Wire _) -> st.wire_rejects <- st.wire_rejects + 1
    | Error (Bad_reply _) -> st.bad_replies <- st.bad_replies + 1
    | Error (Retries_exhausted { last; _ }) | Error (Connect last) ->
        record_exhaustion st ~tenant ~node:home ~expected:true ~last
    | Error Closed -> assert false
  end
  else begin
    (* two full passes over the ring before giving up, so a stray
       injected drop on the failover target cannot fake an outage *)
    let order = ring st home @ ring st home in
    let rec go hops last = function
      | [] ->
          record_exhaustion st ~tenant ~node:home
            ~expected:(all_down st ~at) ~last
      | n :: rest -> (
          match Client.decide (client_of st n) reqs with
          | Ok replies ->
              st.decisions <- st.decisions + List.length replies;
              st.failovers <- st.failovers + min hops 1;
              finish ~hops
          | Error (Remote _) -> st.remote_rejects <- st.remote_rejects + 1
          | Error (Wire _) -> st.wire_rejects <- st.wire_rejects + 1
          | Error (Bad_reply _) -> st.bad_replies <- st.bad_replies + 1
          | Error (Retries_exhausted { last; _ }) | Error (Connect last) ->
              go (hops + 1) last rest
          | Error Closed -> assert false)
    in
    go 0 "" order
  end

(* Publishes stay home: the slot lives on the home node, so there is
   nowhere to fail over to. While the home node is down per the plan
   the value is deferred — the resync on heal replays the latest
   intended value through the same publish path. *)
let publish_attempts = 6

let run_publish st ev value =
  let tenant = ev.Tenantgen.tenant in
  let home = home_of st tenant in
  let slot = slot_of st tenant in
  let at = !(st.clock) in
  st.intended.(home).(slot) <- Some value;
  if Plan.down st.plan ~node:home ~at then st.deferred <- st.deferred + 1
  else begin
    let rec go attempt last =
      if attempt >= publish_attempts then
        record_exhaustion st ~tenant ~node:home ~expected:false ~last
      else
        match Client.publish (client_of st home) ~node:slot value with
        | Ok _ -> st.publishes <- st.publishes + 1
        | Error (Remote _) ->
            st.remote_rejects <- st.remote_rejects + 1;
            go (attempt + 1) last
        | Error (Wire _) ->
            st.wire_rejects <- st.wire_rejects + 1;
            go (attempt + 1) last
        | Error (Bad_reply _) ->
            st.bad_replies <- st.bad_replies + 1;
            go (attempt + 1) last
        | Error (Retries_exhausted { last; _ }) | Error (Connect last) ->
            go (attempt + 1) last
        | Error Closed -> assert false
    in
    go 0 "";
    ignore (take_delays st)
  end

(* Re-publish every slot the driver has intent for — the restart and
   partition-heal path. Goes through the ordinary wire publish, not a
   backdoor into the estimator. *)
let resync st node reason =
  let replayed = ref 0 in
  for slot = 0 to st.cfg.estimator_slots - 1 do
    match st.intended.(node).(slot) with
    | None -> ()
    | Some value ->
        let rec go attempt =
          if attempt >= publish_attempts then ()
          else
            match Client.publish (client_of st node) ~node:slot value with
            | Ok _ ->
                incr replayed;
                st.resyncs <- st.resyncs + 1
            | Error _ -> go (attempt + 1)
        in
        go 0
  done;
  ignore (take_delays st);
  Audit.record_note st.audit
    (Printf.sprintf "chaos resync node=%d slots=%d reason=%s" node !replayed
       reason)

let read_global st ~home =
  let order = ring st home @ ring st home in
  let rec go = function
    | [] -> (st.last_global, home)
    | n :: rest -> (
        match Client.global (client_of st n) with
        | Ok g ->
            st.last_global <- g;
            (g, n)
        | Error _ -> go rest)
  in
  let r = go order in
  ignore (take_delays st);
  r

let oracle_for st variant seed =
  match Hashtbl.find_opt st.oracle (variant, seed) with
  | Some s -> s
  | None ->
      let built = Attack.build variant ~seed () in
      let engine = Workload.engine_of ~policy:Policies.propagate_all built in
      Engine.attach engine (Workload.machine_of built);
      let s = Metrics.measure_run engine in
      Hashtbl.add st.oracle (variant, seed) s;
      s

let run_attack st ev variant seed =
  let tenant = ev.Tenantgen.tenant in
  let home = home_of st tenant in
  let g, from_node = read_global st ~home in
  let built = Attack.build variant ~seed () in
  let policy =
    Policies.mitos ~name:"chaos-mitos" ~handle_direct:true
      ~pollution_source:(fun _ -> g)
      Calib.attack_params
  in
  let engine =
    Workload.engine_of ~config:Calib.attack_engine_config ~policy built
  in
  Engine.attach engine (Workload.machine_of built);
  let summary = Metrics.measure_run engine in
  let oracle = oracle_for st variant seed in
  let row =
    {
      attack_at = !(st.clock);
      attack_tenant = tenant;
      attack_node = from_node;
      variant;
      detected = summary.Metrics.detected_bytes > 0;
      tainted_bytes = summary.Metrics.tainted_bytes;
      oracle_detected = oracle.Metrics.detected_bytes > 0;
      oracle_tainted_bytes = oracle.Metrics.tainted_bytes;
    }
  in
  st.attacks <- row :: st.attacks;
  Audit.record_note st.audit
    (Printf.sprintf
       "chaos attack tenant=%d node=%d variant=%s detected=%b global=%s" tenant
       from_node (Attack.variant_name variant) row.detected
       (Registry.fmt_value g))

let run_tick st ~at =
  st.ticks <- st.ticks + 1;
  let down = ref 0 in
  Array.iter
    (fun node ->
      match node.client with
      | None -> incr down
      | Some client -> (
          match Client.ping client with
          | Ok () -> ()
          | Error (Retries_exhausted _ | Connect _) -> incr down
          | Error (Remote _ | Wire _ | Bad_reply _) ->
              (* an injected frame fault ate the ping; the node answered
                 something, so it is up *)
              st.ping_rejects <- st.ping_rejects + 1
          | Error Closed -> incr down))
    st.nodes;
  ignore (take_delays st);
  if !down > 0 then st.down_ticks <- st.down_ticks + 1;
  Alerts.observe st.alerts ~at [ ("chaos_nodes_down", float_of_int !down) ]

(* ---------- lifecycle actions ---------- *)

type action = Akill of int | Arestart of int | Aheal of int

let actions_of plan =
  List.concat_map
    (function
      | Plan.Kill { at; node } -> [ (at, Akill node) ]
      | Plan.Restart { at; node } -> [ (at, Arestart node) ]
      | Plan.Partition { until; node; _ } when until < infinity ->
          [ (until, Aheal node) ]
      | _ -> [])
    plan
  |> List.stable_sort compare

let run_action st = function
  | Akill n ->
      st.kills <- st.kills + 1;
      stop_node st st.nodes.(n);
      Audit.record_note st.audit (Printf.sprintf "chaos kill node=%d" n)
  | Arestart n ->
      st.restarts <- st.restarts + 1;
      start_node st st.nodes.(n);
      Audit.record_note st.audit (Printf.sprintf "chaos restart node=%d" n);
      resync st n "restart"
  | Aheal n -> resync st n "partition-heal"

(* ---------- the run ---------- *)

let outage_rule =
  Alerts.rule ~name:outage_alert_name ~budget:0.25
    ~windows:
      [ { Alerts.fast = 3.0; slow = 6.0; burn = 1.0; pair_severity = Alerts.Page } ]
    ~for_:2.0 ~keep_firing:2.0 ~signal:"chaos_nodes_down"
    ~cmp:Alerts.Le ~objective:0.0 ()

let ( let* ) = Result.bind

let validate cfg ~plan =
  let* () = Tenantgen.validate cfg.gen in
  let* () =
    if cfg.nodes <= 0 then Error "nodes must be positive"
    else if cfg.estimator_slots <= 0 then Error "estimator_slots must be positive"
    else if cfg.batch <= 0 then Error "batch must be positive"
    else if cfg.tick_every <= 0.0 then Error "tick_every must be positive"
    else if cfg.client_retries < 0 then Error "client_retries must be >= 0"
    else Ok ()
  in
  Plan.validate ~nodes:cfg.nodes ~duration:cfg.gen.Tenantgen.duration plan

let teardown st =
  Array.iter
    (fun node ->
      (match node.client with
      | Some c ->
          Client.close c;
          node.client <- None
      | None -> ());
      (match node.gate with
      | Some g ->
          Gate.close g;
          node.gate <- None
      | None -> ());
      stop_node st node)
    st.nodes

let run cfg ~plan =
  let* () = validate cfg ~plan in
  incr fleet_counter;
  let fleet_id = !fleet_counter in
  let registry = Registry.create () in
  let st =
    {
      cfg;
      plan;
      nodes =
        Array.init cfg.nodes (fun idx ->
            {
              idx;
              up_name = Printf.sprintf "chaos%d-n%d" fleet_id idx;
              server = None;
              listener = None;
              upstream_conn = None;
              gate = None;
              client = None;
            });
      clock = ref 0.0;
      registry;
      audit = Audit.create ();
      alerts = Alerts.create ~rules:[ outage_rule ] ();
      mix = Tenantgen.mix_rngs cfg.gen;
      intended = Array.make_matrix cfg.nodes cfg.estimator_slots None;
      last_global = 0.0;
      oracle = Hashtbl.create 8;
      decide_events = 0;
      decisions = 0;
      publishes = 0;
      deferred = 0;
      resyncs = 0;
      remote_rejects = 0;
      wire_rejects = 0;
      bad_replies = 0;
      failovers = 0;
      ping_rejects = 0;
      kills = 0;
      restarts = 0;
      attacks = [];
      exhaustions = [];
      latencies = [];
      ticks = 0;
      down_ticks = 0;
      fired = 0;
      resolved = 0;
    }
  in
  let wall_start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      (* bring the fleet up: servers, gates in front of them, and one
         driver client per gate (tenants share them; the tenant label
         travels in the audit notes) *)
      Array.iter (fun node -> start_node st node) st.nodes;
      Array.iter
        (fun node ->
          node.gate <-
            Some
              (Gate.create ~node:node.idx
                 ~name:(Printf.sprintf "chaos%d-g%d" fleet_id node.idx)
                 ~plan ~seed:cfg.gen.Tenantgen.seed
                 ~now:(fun () -> !(st.clock))
                 ~upstream:(upstream_of st node) ~client_max_frame ()))
        st.nodes;
      let* () =
        Array.fold_left
          (fun acc node ->
            let* () = acc in
            let gate = Option.get node.gate in
            match
              Client.connect ~retries:cfg.client_retries
                ~max_frame:client_max_frame ~registry (Gate.endpoint gate)
            with
            | Ok c ->
                node.client <- Some c;
                Ok ()
            | Error e ->
                Error
                  (Printf.sprintf "node %d client: %s" node.idx
                     (Client.error_to_string e)))
          (Ok ()) st.nodes
      in
      let schedule = Tenantgen.schedule cfg.gen in
      let actions = ref (actions_of plan) in
      let duration = cfg.gen.Tenantgen.duration in
      let next_tick = ref cfg.tick_every in
      (* merge the three time-ordered streams; at equal times lifecycle
         actions run first, then the alert tick, then traffic *)
      let drain_until t =
        let continue = ref true in
        while !continue do
          let ta = match !actions with (ta, _) :: _ -> ta | [] -> infinity in
          let tt = if !next_tick <= duration then !next_tick else infinity in
          if ta <= tt && ta <= t then begin
            st.clock := ta;
            (match !actions with
            | (_, act) :: rest ->
                actions := rest;
                run_action st act
            | [] -> ())
          end
          else if tt < ta && tt <= t then begin
            st.clock := tt;
            run_tick st ~at:tt;
            next_tick := !next_tick +. cfg.tick_every
          end
          else continue := false
        done
      in
      Array.iter
        (fun ev ->
          drain_until ev.Tenantgen.at;
          st.clock := ev.Tenantgen.at;
          match ev.Tenantgen.kind with
          | Tenantgen.Decide -> run_decide st ev
          | Tenantgen.Publish value -> run_publish st ev value
          | Tenantgen.Attack (variant, seed) -> run_attack st ev variant seed)
        schedule;
      drain_until duration;
      st.clock := duration;
      (* final per-node reads for the re-sync verdict *)
      let syncs =
        List.init cfg.nodes (fun n ->
            let intended =
              Array.fold_left
                (fun acc v -> acc +. Option.value v ~default:0.0)
                0.0 st.intended.(n)
            in
            let final =
              if st.nodes.(n).server = None then None
              else
                let rec go attempt =
                  if attempt >= publish_attempts then None
                  else
                    match Client.global (client_of st n) with
                    | Ok g -> Some g
                    | Error _ -> go (attempt + 1)
                in
                go 0
            in
            { sync_node = n; intended; final })
      in
      let incidents = Alerts.incidents st.alerts in
      List.iter
        (fun i ->
          match i.Alerts.transition with
          | Alerts.To_firing -> st.fired <- st.fired + 1
          | Alerts.To_resolved -> st.resolved <- st.resolved + 1
          | _ -> ())
        incidents;
      let latencies = Array.of_list (List.rev st.latencies) in
      Array.sort compare latencies;
      let injected =
        let total = Gate.zero_counts () in
        Array.iter
          (fun node ->
            match node.gate with
            | None -> ()
            | Some g ->
                let c = Gate.counts g in
                total.Gate.calls <- total.Gate.calls + c.Gate.calls;
                total.Gate.drops <- total.Gate.drops + c.Gate.drops;
                total.Gate.corrupt_requests <-
                  total.Gate.corrupt_requests + c.Gate.corrupt_requests;
                total.Gate.corrupt_replies <-
                  total.Gate.corrupt_replies + c.Gate.corrupt_replies;
                total.Gate.truncated_replies <-
                  total.Gate.truncated_replies + c.Gate.truncated_replies;
                total.Gate.oversized_replies <-
                  total.Gate.oversized_replies + c.Gate.oversized_replies;
                total.Gate.refusals <- total.Gate.refusals + c.Gate.refusals)
          st.nodes;
        total
      in
      let counter name =
        Registry.counter_value (Registry.counter st.registry name)
      in
      Ok
        {
          events_total = Array.length schedule;
          decide_events = st.decide_events;
          decisions = st.decisions;
          publishes = st.publishes;
          deferred_publishes = st.deferred;
          resync_publishes = st.resyncs;
          remote_rejects = st.remote_rejects;
          wire_rejects = st.wire_rejects;
          bad_replies = st.bad_replies;
          failovers = st.failovers;
          ping_rejects = st.ping_rejects;
          kills = st.kills;
          restarts = st.restarts;
          attacks = List.rev st.attacks;
          exhaustions = List.rev st.exhaustions;
          injected;
          latencies_ns = latencies;
          client_retries_total = counter "mitos_net_retries_total";
          client_exhausted_total = counter "mitos_net_retries_exhausted_total";
          syncs;
          incidents;
          alerts_fired = st.fired;
          alerts_resolved = st.resolved;
          alert_quiet_at_end =
            (match Alerts.phase_of st.alerts outage_alert_name with
            | Some Alerts.Inactive | None -> true
            | Some _ -> false);
          ticks = st.ticks;
          down_ticks = st.down_ticks;
          audit = st.audit;
          wall_seconds = Unix.gettimeofday () -. wall_start;
        })
