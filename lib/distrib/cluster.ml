open Mitos_dift
module Workload = Mitos_workload.Workload

type estimator = {
  publish : slot:int -> float -> unit;
  contribution : slot:int -> float;
  global : slot:int -> float;
}

type node = {
  slot : int;
  engine : Engine.t;
  node_params : Mitos.Params.t;
  mutable halted : bool;
  mutable steps_since_sync : int;
}

type t = {
  nodes : node array;
  est : estimator;
  sync_period : int;
  mutable syncs : int;
  staleness_samples : Mitos_util.Stats.Online.t;
}

let exact_contribution node =
  Mitos.Cost.weighted_pollution node.node_params (Engine.stats node.engine)

let sync t node =
  t.est.publish ~slot:node.slot (exact_contribution node);
  node.steps_since_sync <- 0;
  t.syncs <- t.syncs + 1

let build ~config ~watch ~topology ~est ~first_slot ~sync_period pairs =
  if sync_period < 1 then invalid_arg "Cluster.create: sync_period must be >= 1";
  if pairs = [] then invalid_arg "Cluster.create: need at least one node";
  let node_count = List.length pairs in
  (* neighbourhood visibility: None = complete graph (global scalar) *)
  let neighbours =
    match topology with
    | None -> None
    | Some edges ->
      let adj = Array.make node_count [] in
      List.iter
        (fun (a, b) ->
          if a < 0 || a >= node_count || b < 0 || b >= node_count then
            invalid_arg
              (Printf.sprintf "Cluster: edge (%d,%d) out of range" a b);
          if not (List.mem b adj.(a)) then adj.(a) <- b :: adj.(a);
          if not (List.mem a adj.(b)) then adj.(b) <- a :: adj.(b))
        edges;
      Some adj
  in
  let nodes =
    List.mapi
      (fun index (built, node_params) ->
        let slot = first_slot + index in
        (* Every node's policy reads the shared (or neighbourhood)
           estimate instead of its local statistics. *)
        let pollution_source _stats =
          match neighbours with
          | None -> est.global ~slot
          | Some adj ->
            List.fold_left
              (fun acc n -> acc +. est.contribution ~slot:(first_slot + n))
              (est.contribution ~slot) adj.(index)
        in
        let policy =
          Policies.mitos
            ~name:(Printf.sprintf "mitos-node%d" slot)
            ~pollution_source node_params
        in
        let engine = Workload.engine_of ~config ~policy built in
        (match watch with
        | Some (ty1, ty2) -> Engine.watch_confluence engine ty1 ty2
        | None -> ());
        Engine.attach engine (Workload.machine_of built);
        { slot; engine; node_params; halted = false; steps_since_sync = 0 })
      pairs
    |> Array.of_list
  in
  {
    nodes;
    est;
    sync_period;
    syncs = 0;
    staleness_samples = Mitos_util.Stats.Online.create ();
  }

let of_estimator e =
  {
    publish = (fun ~slot v -> Estimator.publish e ~node:slot v);
    contribution = (fun ~slot -> Estimator.contribution e ~node:slot);
    global = (fun ~slot:_ -> Estimator.global e);
  }

let create_heterogeneous ?(config = Engine.default_config) ?watch ?topology
    ?(shards = 1) ~sync_period pairs =
  (* an empty node list reaches [build], which rejects it *)
  let nodes = max 1 (List.length pairs) in
  let est = of_estimator (Estimator.create ~shards ~nodes ()) in
  build ~config ~watch ~topology ~est ~first_slot:0 ~sync_period pairs

let create ?config ?watch ?shards ~params ~sync_period builts =
  create_heterogeneous ?config ?watch ?shards ~sync_period
    (List.map (fun built -> (built, params)) builts)

let create_over est ~first_slot ~config ~params ~sync_period builts =
  build ~config ~watch:None ~topology:None ~est ~first_slot ~sync_period
    (List.map (fun built -> (built, params)) builts)

let num_nodes t = Array.length t.nodes
let global t = t.est.global ~slot:t.nodes.(0).slot

let staleness t =
  let exact_total = ref 0.0 and drift = ref 0.0 in
  Array.iter
    (fun node ->
      let exact = exact_contribution node in
      let published = t.est.contribution ~slot:node.slot in
      exact_total := !exact_total +. exact;
      drift := !drift +. Float.abs (exact -. published))
    t.nodes;
  if !exact_total <= 0.0 then 0.0 else !drift /. !exact_total

let staleness_sample_period = 97 (* rounds; off the sync cadence *)

let run ?(max_rounds = 10_000_000) t =
  let rounds = ref 0 in
  let live = ref (Array.length t.nodes) in
  while !live > 0 && !rounds < max_rounds do
    if !rounds mod staleness_sample_period = 0 then
      Mitos_util.Stats.Online.add t.staleness_samples (staleness t);
    Array.iter
      (fun node ->
        if not node.halted then begin
          if Engine.step node.engine then begin
            node.steps_since_sync <- node.steps_since_sync + 1;
            if node.steps_since_sync >= t.sync_period then sync t node
          end
          else begin
            node.halted <- true;
            (* final publish so the last state is visible cluster-wide *)
            sync t node;
            decr live
          end
        end)
      t.nodes;
    incr rounds
  done;
  !rounds

let summaries t =
  Array.to_list (Array.map (fun n -> Metrics.of_engine n.engine) t.nodes)

let sum_counter t field =
  Array.fold_left (fun acc n -> acc + field (Engine.counters n.engine)) 0
    t.nodes

let total_propagated t = sum_counter t (fun c -> c.Engine.ifp_propagated)
let total_blocked t = sum_counter t (fun c -> c.Engine.ifp_blocked)
let syncs_performed t = t.syncs

let local_pollution t ~node = exact_contribution t.nodes.(node)

let mean_staleness t = Mitos_util.Stats.Online.mean t.staleness_samples

let alerts t =
  Array.to_list t.nodes
  |> List.concat_map (fun node ->
         List.map (fun a -> (node.slot, a)) (Engine.alerts node.engine))
  |> List.sort (fun (_, a) (_, b) ->
         Int.compare a.Engine.alert_step b.Engine.alert_step)

let first_alert t = match alerts t with [] -> None | a :: _ -> Some a

let report ~rounds t =
  let f = Mitos_obs.Registry.fmt_value in
  let b = Buffer.create 512 in
  Printf.bprintf b "cluster: nodes=%d sync_period=%d rounds=%d\n"
    (num_nodes t) t.sync_period rounds;
  Printf.bprintf b "ifp: propagated=%d blocked=%d\n" (total_propagated t)
    (total_blocked t);
  Printf.bprintf b "sync: publishes=%d mean_staleness_pct=%s global=%s\n"
    t.syncs
    (f (100.0 *. mean_staleness t))
    (f (global t));
  Array.iter
    (fun node ->
      let c = Engine.counters node.engine in
      Printf.bprintf b
        "node %d: steps=%d propagated=%d blocked=%d pollution=%s\n" node.slot
        c.Engine.steps c.Engine.ifp_propagated c.Engine.ifp_blocked
        (f (exact_contribution node)))
    t.nodes;
  Buffer.contents b
