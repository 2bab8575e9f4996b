(* MITOS across a distributed system.

   Four nodes each run their own workload under their own DIFT engine;
   the undertainting term of every decision uses exact local counts,
   while the overtainting term reads a shared pollution estimate that
   nodes publish only every SYNC steps - the "globally available
   variable" of the paper's scalability argument (SIV-B).

   Run with:
     dune exec examples/distributed_monitor.exe            (sync = 500)
     dune exec examples/distributed_monitor.exe -- 10000   (stale sync) *)

module Cluster = Mitos_distrib.Cluster
module W = Mitos_workload
module Calib = Mitos_experiments.Calib
module Metrics = Mitos_dift.Metrics
module Table = Mitos_util.Table

let () =
  let sync_period =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 500
  in
  (* a heterogeneous fleet: two download nodes, a file server, a
     compression node *)
  (* a heterogeneous fleet with one compromised machine (node 3) *)
  let nodes =
    [
      W.Crypto.build ~seed:60 ();
      W.Compress.build ~seed:61 ();
      W.Filebench.build ~seed:62 ();
      W.Attack.build W.Attack.Reverse_tcp_rc4 ~seed:63 ();
    ]
  in
  Printf.printf
    "Running %d nodes, publishing pollution every %d steps...\n\n"
    (List.length nodes) sync_period;
  let cluster =
    Cluster.create
      ~watch:(Mitos_tag.Tag_type.Network, Mitos_tag.Tag_type.Export_table)
      ~params:Calib.attack_params ~sync_period nodes
  in
  let rounds = Cluster.run cluster in
  let table =
    Table.create
      ~header:[ "node"; "steps"; "copies"; "ifp+"; "ifp-"; "tainted" ]
      ()
  in
  List.iteri
    (fun i (s : Metrics.summary) ->
      Table.add_row table
        [
          string_of_int i;
          string_of_int s.Metrics.steps;
          string_of_int s.Metrics.total_copies;
          string_of_int s.Metrics.ifp_propagated;
          string_of_int s.Metrics.ifp_blocked;
          string_of_int s.Metrics.tainted_bytes;
        ])
    (Cluster.summaries cluster);
  Table.print table;
  Printf.printf
    "\n%d rounds, %d pollution syncs, global estimate %.1f copies.\n" rounds
    (Cluster.syncs_performed cluster)
    (Cluster.global cluster);
  (match Cluster.first_alert cluster with
  | Some (node, alert) ->
    Printf.printf
      "ALERT: node %d tripped the netflow+export-table wire at step %d \
       (addr %#x) - %d alert bytes cluster-wide.\n"
      node alert.Mitos_dift.Engine.alert_step
      alert.Mitos_dift.Engine.alert_addr
      (List.length (Cluster.alerts cluster))
  | None -> print_endline "no confluence alerts anywhere in the cluster.");
  print_endline
    "Try a much larger sync period: decisions barely change, because the\n\
     single global scalar moves slowly relative to per-flow decisions -\n\
     that is what makes MITOS practical on large distributed systems."
