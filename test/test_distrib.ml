module Cluster = Mitos_distrib.Cluster
module Estimator = Mitos_distrib.Estimator
module W = Mitos_workload

let params = Mitos_experiments.Calib.sensitivity_params ()

let small_nodes n =
  List.init n (fun i -> W.Netbench.build ~seed:(50 + i) ~chunks:6 ())

(* -- Estimator ----------------------------------------------------------- *)

let test_estimator_basics () =
  let e = Estimator.create ~nodes:3 () in
  Alcotest.(check (float 0.0)) "initially zero" 0.0 (Estimator.global e);
  Estimator.publish e ~node:0 10.0;
  Estimator.publish e ~node:2 5.0;
  Alcotest.(check (float 0.0)) "sum" 15.0 (Estimator.global e);
  Estimator.publish e ~node:0 1.0;
  Alcotest.(check (float 0.0)) "overwrite" 6.0 (Estimator.global e);
  Alcotest.(check (float 0.0)) "contribution" 5.0
    (Estimator.contribution e ~node:2);
  Alcotest.(check int) "nodes" 3 (Estimator.nodes e);
  Alcotest.(check int) "default one shard" 1 (Estimator.shards e);
  Alcotest.(check bool) "zero nodes rejected" true
    (try ignore (Estimator.create ~nodes:0 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero shards rejected" true
    (try ignore (Estimator.create ~shards:0 ~nodes:3 ()); false
     with Invalid_argument _ -> true);
  (* more shards than nodes clamps rather than leaving empty shards *)
  Alcotest.(check int) "shards clamped to nodes" 3
    (Estimator.shards (Estimator.create ~shards:8 ~nodes:3 ()))

let test_estimator_shard_partition () =
  (* every node maps to exactly one shard, shard ranges are contiguous
     and in node order — the property the fixed-order global fold
     depends on *)
  List.iter
    (fun (nodes, shards) ->
      let e = Estimator.create ~shards ~nodes () in
      let prev = ref 0 in
      for node = 0 to nodes - 1 do
        let s = Estimator.shard_of_node e node in
        Alcotest.(check bool) "shard in range" true
          (s >= 0 && s < Estimator.shards e);
        Alcotest.(check bool) "monotone in node index" true (s >= !prev);
        Alcotest.(check bool) "no gaps" true (s - !prev <= 1);
        prev := s
      done;
      Alcotest.(check int) "last shard reached" (Estimator.shards e - 1) !prev)
    [ (1, 1); (4, 4); (7, 3); (16, 4); (5, 2); (9, 8) ]

(* Satellite: publish keeps the incrementally-maintained global exact —
   after any publish/overwrite sequence, [global] equals the
   from-scratch fixed-order fold bit-for-bit, at every shard count. *)
let test_estimator_incremental_global_exact () =
  List.iter
    (fun shards ->
      let nodes = 7 in
      let e = Estimator.create ~shards ~nodes () in
      let mirror = Array.make nodes 0.0 in
      (* deterministic pseudo-random publish/overwrite stream with
         awkward magnitudes, so incremental-sum drift would show *)
      let state = ref 0x2545F491 in
      let next () =
        state := (!state * 1103515245) + 12345;
        !state land 0xFFFFFF
      in
      let expected () =
        (* per-shard left fold, shards in index order — the documented
           reduce contract *)
        let sums = Array.make (Estimator.shards e) 0.0 in
        Array.iteri
          (fun node v ->
            let s = Estimator.shard_of_node e node in
            sums.(s) <- sums.(s) +. v)
          mirror;
        Array.fold_left ( +. ) 0.0 sums
      in
      for _ = 1 to 500 do
        let node = next () mod nodes in
        let value = float_of_int (next ()) /. 1024.0 in
        Estimator.publish e ~node value;
        mirror.(node) <- value;
        if Estimator.global e <> expected () then
          Alcotest.failf "global drifted at %d shards: %.17g <> %.17g" shards
            (Estimator.global e) (expected ())
      done;
      (* and per-node contributions survived every overwrite *)
      Array.iteri
        (fun node v ->
          Alcotest.(check (float 0.0)) "contribution exact" v
            (Estimator.contribution e ~node))
        mirror)
    [ 1; 2; 3; 7 ]

(* Satellite: the sharded estimator is observationally identical to the
   unsharded one under random interleaved publish/read sequences. *)
let qcheck_estimator_sharded_equivalent =
  QCheck.Test.make
    ~name:"sharded estimator observationally equal to unsharded" ~count:50
    QCheck.(
      pair (2 -- 6)
        (list_of_size Gen.(1 -- 60)
           (pair (0 -- 9) (float_bound_exclusive 1000.0))))
    (fun (shards, ops) ->
      let nodes = 10 in
      let flat = Estimator.create ~nodes () in
      let sharded = Estimator.create ~shards ~nodes () in
      List.for_all
        (fun (node, value) ->
          Estimator.publish flat ~node value;
          Estimator.publish sharded ~node value;
          let close a b =
            (* the global folds group differently across shard counts;
               contributions must agree exactly *)
            Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
          in
          close (Estimator.global flat) (Estimator.global sharded)
          && List.for_all
               (fun n ->
                 Estimator.contribution flat ~node:n
                 = Estimator.contribution sharded ~node:n)
               (List.init nodes Fun.id))
        ops)

(* Satellite: 4-domain stress — concurrent publishes to a sharded
   estimator lose nothing: every slot holds its domain's last value. *)
let test_estimator_concurrent_no_lost_updates () =
  let domains_n = 4 and per_domain = 2 and rounds = 20_000 in
  let nodes = domains_n * per_domain in
  let e = Estimator.create ~shards:4 ~nodes () in
  let domains =
    List.init domains_n (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              for k = 0 to per_domain - 1 do
                let node = (d * per_domain) + k in
                Estimator.publish e ~node (float_of_int ((node * 1000) + i));
                ignore (Estimator.global e);
                ignore (Estimator.contribution e ~node)
              done
            done))
  in
  List.iter Domain.join domains;
  for node = 0 to nodes - 1 do
    Alcotest.(check (float 0.0)) "last publish survived"
      (float_of_int ((node * 1000) + rounds))
      (Estimator.contribution e ~node)
  done;
  (* and the incremental shard sums converged to the exact fold *)
  let expected =
    let sums = Array.make (Estimator.shards e) 0.0 in
    for node = 0 to nodes - 1 do
      let s = Estimator.shard_of_node e node in
      sums.(s) <- sums.(s) +. float_of_int ((node * 1000) + rounds)
    done;
    Array.fold_left ( +. ) 0.0 sums
  in
  Alcotest.(check (float 0.0)) "global exact after the race" expected
    (Estimator.global e);
  (* the per-shard locks took the traffic and are visible by name *)
  let stats = Estimator.shard_stats e in
  Alcotest.(check int) "one stats row per shard" 4 (List.length stats);
  List.iteri
    (fun i (name, (st : Mitos_obs.Contended.stats)) ->
      Alcotest.(check string) "shard lock name"
        (Printf.sprintf "estimator_shard_%d" i)
        name;
      Alcotest.(check bool) "shard lock saw publishes" true
        (st.acquisitions >= rounds))
    stats

(* The estimator's concurrency contract: cross-domain publishes to
   disjoint slots never tear, and the global is always the sum of the
   last value each node published — the coordinator serves it from
   worker domains while nodes keep publishing. *)
let qcheck_estimator_concurrent =
  QCheck.Test.make ~name:"estimator publishes race-free across domains"
    ~count:15
    QCheck.(
      list_of_size Gen.(2 -- 4)
        (list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0)))
    (fun per_node ->
      let e = Estimator.create ~nodes:(List.length per_node) () in
      let domains =
        List.mapi
          (fun node values ->
            Domain.spawn (fun () ->
                List.iter
                  (fun v ->
                    Estimator.publish e ~node v;
                    (* concurrent reads must neither tear nor deadlock *)
                    ignore (Estimator.global e))
                  values))
          per_node
      in
      List.iter Domain.join domains;
      (* same fold order as Estimator.global, so equality is exact *)
      let expected =
        List.fold_left
          (fun acc values -> acc +. List.nth values (List.length values - 1))
          0.0 per_node
      in
      Estimator.global e = expected)

(* -- Cluster --------------------------------------------------------------- *)

let test_cluster_runs_to_completion () =
  let c = Cluster.create ~params ~sync_period:10 (small_nodes 3) in
  let rounds = Cluster.run c in
  Alcotest.(check bool) "made progress" true (rounds > 100);
  Alcotest.(check int) "three nodes" 3 (Cluster.num_nodes c);
  Alcotest.(check int) "three summaries" 3 (List.length (Cluster.summaries c));
  Alcotest.(check bool) "decisions happened" true
    (Cluster.total_propagated c + Cluster.total_blocked c > 0)

let test_cluster_final_sync_zero_staleness () =
  let c = Cluster.create ~params ~sync_period:1000 (small_nodes 2) in
  ignore (Cluster.run c);
  (* each node publishes on halt, so the final estimate is exact *)
  Alcotest.(check (float 1e-9)) "no residual staleness" 0.0 (Cluster.staleness c)

let test_cluster_sync_counts () =
  let c1 = Cluster.create ~params ~sync_period:1 (small_nodes 2) in
  ignore (Cluster.run c1);
  let ck = Cluster.create ~params ~sync_period:100 (small_nodes 2) in
  ignore (Cluster.run ck);
  Alcotest.(check bool) "longer period -> far fewer syncs" true
    (Cluster.syncs_performed ck * 50 < Cluster.syncs_performed c1)

let test_cluster_global_estimate_reflects_all_nodes () =
  let c = Cluster.create ~params ~sync_period:1 (small_nodes 2) in
  ignore (Cluster.run c);
  let total =
    Cluster.local_pollution c ~node:0 +. Cluster.local_pollution c ~node:1
  in
  Alcotest.(check (float 1e-6)) "estimator sums node contributions" total
    (Cluster.global c)

let test_cluster_staleness_shifts_decisions () =
  let run period =
    let c = Cluster.create ~params ~sync_period:period (small_nodes 2) in
    ignore (Cluster.run c);
    Cluster.total_propagated c
  in
  let tight = run 1 in
  let loose = run 50_000 in
  (* with a very stale (lower) pollution estimate, nodes propagate at
     least as much as with an up-to-date one *)
  Alcotest.(check bool) "stale estimate propagates >= fresh" true (loose >= tight)

let test_cluster_wide_detection () =
  (* one compromised machine among benign ones: the cluster's shared
     alarm must fire on exactly the attacked node *)
  let nodes =
    [
      W.Netbench.build ~seed:70 ~chunks:4 ();
      W.Attack.build W.Attack.Reverse_tcp ~seed:71 ();
      W.Netbench.build ~seed:72 ~chunks:4 ();
    ]
  in
  let c =
    Cluster.create
      ~watch:(Mitos_tag.Tag_type.Network, Mitos_tag.Tag_type.Export_table)
      ~params:Mitos_experiments.Calib.attack_params ~sync_period:100 nodes
  in
  ignore (Cluster.run c);
  (match Cluster.first_alert c with
  | Some (node, alert) ->
    Alcotest.(check int) "attacked node flagged" 1 node;
    Alcotest.(check bool) "alert in kernel area" true
      (Mitos_system.Layout.in_kernel_export alert.Mitos_dift.Engine.alert_addr)
  | None -> Alcotest.fail "cluster missed the attack");
  (* benign netbench nodes also hit netflow+export confluence via their
     simulated library loads, but node 1 carries the payload burst *)
  let node1_alerts =
    List.length (List.filter (fun (n, _) -> n = 1) (Cluster.alerts c))
  in
  Alcotest.(check bool) "payload-sized alert burst on node 1" true
    (node1_alerts >= W.Attack.payload_len)

let test_cluster_heterogeneous_params () =
  (* two identical workloads, opposite tau regimes: the permissive
     node must propagate more than the strict one, despite sharing the
     same global pollution scalar *)
  let strict = Mitos_experiments.Calib.sensitivity_params ~tau:1.0 () in
  let permissive = Mitos_experiments.Calib.sensitivity_params ~tau:0.01 () in
  let c =
    Cluster.create_heterogeneous ~sync_period:10
      [
        (W.Netbench.build ~seed:80 ~chunks:8 (), strict);
        (W.Netbench.build ~seed:80 ~chunks:8 (), permissive);
      ]
  in
  ignore (Cluster.run c);
  match Cluster.summaries c with
  | [ strict_s; permissive_s ] ->
    Alcotest.(check bool) "permissive node propagates more" true
      (permissive_s.Mitos_dift.Metrics.ifp_propagated
      > strict_s.Mitos_dift.Metrics.ifp_propagated * 2)
  | _ -> Alcotest.fail "expected two summaries"

let test_cluster_topology_restricts_visibility () =
  (* an isolated node never sees the others' pollution, so it
     propagates at least as much as a fully-connected one would *)
  let nodes () =
    List.map
      (fun (b, _) -> b)
      (List.init 3 (fun i -> (W.Netbench.build ~seed:(90 + i) ~chunks:8 (), ())))
  in
  let run topology =
    let pairs =
      List.map (fun b -> (b, params)) (nodes ())
    in
    let c =
      Cluster.create_heterogeneous ?topology ~sync_period:10 pairs
    in
    ignore (Cluster.run c);
    List.map
      (fun (s : Mitos_dift.Metrics.summary) -> s.Mitos_dift.Metrics.ifp_propagated)
      (Cluster.summaries c)
  in
  let full = run None in
  (* node 2 isolated; 0-1 connected *)
  let partial = run (Some [ (0, 1) ]) in
  (match (full, partial) with
  | [ _; _; full2 ], [ _; _; part2 ] ->
    Alcotest.(check bool) "isolated node propagates >= connected" true
      (part2 >= full2)
  | _ -> Alcotest.fail "expected three summaries");
  Alcotest.(check bool) "bad edge rejected" true
    (try
       ignore
         (Cluster.create_heterogeneous ~topology:[ (0, 9) ] ~sync_period:1
            (List.map (fun b -> (b, params)) (nodes ())));
       false
     with Invalid_argument _ -> true)

(* Summaries and alerts of one heterogeneous, topology-restricted,
   watched run, pinned as text: the golden was recorded before the
   in-process and wire-backed run loops were merged into one. *)
let render_heterogeneous_run () =
  let c =
    Cluster.create_heterogeneous
      ~watch:(Mitos_tag.Tag_type.Network, Mitos_tag.Tag_type.Export_table)
      ~topology:[ (0, 1) ] ~sync_period:10
      [
        (W.Netbench.build ~seed:60 ~chunks:4 (), params);
        ( W.Attack.build W.Attack.Reverse_tcp ~seed:61 (),
          Mitos_experiments.Calib.attack_params );
        ( W.Netbench.build ~seed:62 ~chunks:4 (),
          Mitos_experiments.Calib.sensitivity_params ~tau:0.03 () );
      ]
  in
  let rounds = Cluster.run c in
  let summaries =
    List.map
      (fun s -> String.concat " " (Mitos_dift.Metrics.row s) ^ "\n")
      (Cluster.summaries c)
  in
  let alert_line (node, a) =
    Printf.sprintf "node=%d step=%d addr=%d" node
      a.Mitos_dift.Engine.alert_step a.Mitos_dift.Engine.alert_addr
  in
  let alerts = List.map alert_line (Cluster.alerts c) in
  (* the full alert list runs to hundreds of lines: pin its count, its
     ends and a digest of the whole *)
  let ends =
    match alerts with
    | [] -> "none"
    | first :: _ ->
      Printf.sprintf "first %s, last %s" first
        (List.nth alerts (List.length alerts - 1))
  in
  String.concat ""
    ((Printf.sprintf "rounds=%d\n" rounds :: summaries)
    @ [
        Printf.sprintf "alerts=%d: %s\nalerts md5=%s\n" (List.length alerts)
          ends
          (Digest.to_hex (Digest.string (String.concat "\n" alerts)));
      ])

let heterogeneous_golden =
  "rounds=47269\n\
   mitos-node0 14397 14381 15712 388 406 40 1507 0 2.63e+04\n\
   mitos-node1 47268 28158 286544 6982 7441 1104 0 390 9.85e+06\n\
   mitos-node2 14388 18580 25952 644 663 1538 0 0 9.95e+04\n\
   alerts=390: first node=1 step=43486 addr=262400, last node=1 step=46640 addr=68613\n\
   alerts md5=5fdf174fe201a1bbef8c4ae86e57aefe\n"

let test_cluster_heterogeneous_pin () =
  let got = render_heterogeneous_run () in
  Alcotest.(check string) "summaries and alerts" heterogeneous_golden got

let test_cluster_validation () =
  Alcotest.(check bool) "empty nodes" true
    (try ignore (Cluster.create ~params ~sync_period:1 []); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad period" true
    (try ignore (Cluster.create ~params ~sync_period:0 (small_nodes 1)); false
     with Invalid_argument _ -> true)

let test_cluster_max_rounds () =
  let c = Cluster.create ~params ~sync_period:1 (small_nodes 1) in
  Alcotest.(check int) "bounded" 10 (Cluster.run ~max_rounds:10 c)

let () =
  Alcotest.run "mitos_distrib"
    [
      ( "estimator",
        [
          Alcotest.test_case "basics" `Quick test_estimator_basics;
          Alcotest.test_case "shard partition" `Quick
            test_estimator_shard_partition;
          Alcotest.test_case "incremental global exact" `Quick
            test_estimator_incremental_global_exact;
          Alcotest.test_case "4-domain no lost updates" `Quick
            test_estimator_concurrent_no_lost_updates;
          QCheck_alcotest.to_alcotest qcheck_estimator_concurrent;
          QCheck_alcotest.to_alcotest qcheck_estimator_sharded_equivalent;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "runs" `Quick test_cluster_runs_to_completion;
          Alcotest.test_case "final sync" `Quick test_cluster_final_sync_zero_staleness;
          Alcotest.test_case "sync counts" `Quick test_cluster_sync_counts;
          Alcotest.test_case "global estimate" `Quick test_cluster_global_estimate_reflects_all_nodes;
          Alcotest.test_case "staleness shifts decisions" `Slow test_cluster_staleness_shifts_decisions;
          Alcotest.test_case "cluster-wide detection" `Quick test_cluster_wide_detection;
          Alcotest.test_case "heterogeneous params" `Quick
            test_cluster_heterogeneous_params;
          Alcotest.test_case "topology visibility" `Quick
            test_cluster_topology_restricts_visibility;
          Alcotest.test_case "heterogeneous pin" `Quick
            test_cluster_heterogeneous_pin;
          Alcotest.test_case "validation" `Quick test_cluster_validation;
          Alcotest.test_case "max rounds" `Quick test_cluster_max_rounds;
        ] );
    ]
