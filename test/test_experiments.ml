module E = Mitos_experiments
module W = Mitos_workload

(* Keep experiment-level tests cheap: a trimmed netbench trace shared
   across the checks. *)
let small_built = lazy (W.Netbench.build ~seed:5 ~chunks:10 ())
let small_trace = lazy (W.Workload.record (Lazy.force small_built))

(* -- Fig. 3 ---------------------------------------------------------------- *)

let strictly_monotone cmp series =
  let values = List.map snd series in
  List.for_all2 cmp
    (List.filteri (fun i _ -> i < List.length values - 1) values)
    (List.tl values)

let test_fig3_under_decreasing () =
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Printf.sprintf "under cost decreasing (alpha=%g)" alpha)
        true
        (strictly_monotone (fun a b -> a > b) (E.Fig3.under_series ~alpha)))
    E.Fig3.alphas

let test_fig3_over_increasing () =
  List.iter
    (fun beta ->
      Alcotest.(check bool)
        (Printf.sprintf "over cost increasing (beta=%g)" beta)
        true
        (strictly_monotone (fun a b -> a < b) (E.Fig3.over_series ~beta)))
    E.Fig3.betas

let test_fig3_alpha_steepness () =
  (* larger alpha -> the cost decays faster relative to its own scale:
     phi(1)/phi(2) = 2^(alpha-1) grows with alpha *)
  let decay alpha =
    match E.Fig3.under_series ~alpha with
    | (_, c1) :: (_, c2) :: _ -> c1 /. c2
    | _ -> 0.0
  in
  Alcotest.(check bool) "alpha=4 decays faster than alpha=1.5" true
    (decay 4.0 > decay 1.5);
  Alcotest.(check (float 1e-9)) "decay ratio is 2^(alpha-1)" 8.0 (decay 4.0)

(* -- Fig. 7 ----------------------------------------------------------------- *)

let test_fig7_tau_monotonicity () =
  let built = Lazy.force small_built and trace = Lazy.force small_trace in
  let propagated tau =
    let samples, _ = E.Fig7.replay_with_tau built trace ~tau in
    List.length (List.filter (fun s -> s.E.Fig7.propagated) samples)
  in
  let p1 = propagated 1.0 and p01 = propagated 0.1 and p001 = propagated 0.01 in
  Alcotest.(check bool) "tau=1 <= tau=0.1" true (p1 <= p01);
  Alcotest.(check bool) "tau=0.1 <= tau=0.01" true (p01 <= p001);
  Alcotest.(check bool) "gradient is non-trivial" true (p1 < p001)

let test_fig7_submarginal_signs () =
  let built = Lazy.force small_built and trace = Lazy.force small_trace in
  let samples, _ = E.Fig7.replay_with_tau built trace ~tau:0.1 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "under <= 0" true (s.E.Fig7.under <= 0.0);
      Alcotest.(check bool) "over >= 0" true (s.E.Fig7.over >= 0.0))
    samples

let test_fig7_over_marginal_trends_up () =
  let built = Lazy.force small_built and trace = Lazy.force small_trace in
  let samples, _ = E.Fig7.replay_with_tau built trace ~tau:0.1 in
  match E.Fig7.bucketize samples ~buckets:4 with
  | (_, _, over_first, _, _) :: rest ->
    let _, _, over_last, _, _ = List.nth rest (List.length rest - 1) in
    Alcotest.(check bool) "pollution accumulates" true (over_last >= over_first)
  | [] -> Alcotest.fail "no samples"

let test_fig7_bucketize_math () =
  let mk step under over propagated = { E.Fig7.step; under; over; propagated } in
  let samples =
    [ mk 1 (-1.0) 0.5 true; mk 2 (-3.0) 1.5 false; mk 3 (-5.0) 2.5 true;
      mk 4 (-7.0) 3.5 true ]
  in
  (match E.Fig7.bucketize samples ~buckets:2 with
  | [ (s1, u1, o1, p1, b1); (s2, u2, o2, p2, b2) ] ->
    Alcotest.(check int) "bucket1 end step" 2 s1;
    Alcotest.(check (float 1e-9)) "bucket1 mean under" (-2.0) u1;
    Alcotest.(check (float 1e-9)) "bucket1 mean over" 1.0 o1;
    Alcotest.(check int) "bucket1 prop" 1 p1;
    Alcotest.(check int) "bucket1 block" 1 b1;
    Alcotest.(check int) "bucket2 end step" 4 s2;
    Alcotest.(check (float 1e-9)) "bucket2 mean under" (-6.0) u2;
    Alcotest.(check (float 1e-9)) "bucket2 mean over" 3.0 o2;
    Alcotest.(check int) "bucket2 prop" 2 p2;
    Alcotest.(check int) "bucket2 block" 0 b2
  | _ -> Alcotest.fail "expected 2 buckets");
  Alcotest.(check int) "empty samples" 0
    (List.length (E.Fig7.bucketize [] ~buckets:3))

(* -- Fig. 8 -------------------------------------------------------------------- *)

let test_fig8_alpha_improves_balance () =
  let built = Lazy.force small_built and trace = Lazy.force small_trace in
  let points = E.Fig8.sweep built trace in
  let mse alpha =
    let p = List.find (fun p -> p.E.Fig8.alpha = alpha) points in
    p.E.Fig8.fairness.Mitos.Fairness.mse
  in
  Alcotest.(check bool) "alpha=4 at least as balanced as alpha=0.5" true
    (mse 4.0 <= mse 0.5);
  Alcotest.(check int) "one point per alpha"
    (List.length E.Fig8.alphas) (List.length points)

(* -- Fig. 9 --------------------------------------------------------------------- *)

let test_fig9_u_boost_monotone () =
  let built = Lazy.force small_built and trace = Lazy.force small_trace in
  let points = E.Fig9.sweep built trace in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "netflow propagation nondecreasing in u" true
        (a.E.Fig9.net_propagated <= b.E.Fig9.net_propagated);
      pairwise rest
    | _ -> ()
  in
  pairwise points;
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "boost has real effect" true
    (last.E.Fig9.net_propagated > first.E.Fig9.net_propagated);
  Alcotest.(check bool) "export tags not accelerated" true
    (last.E.Fig9.export_propagated <= first.E.Fig9.export_propagated)

(* -- Table II -------------------------------------------------------------------- *)

let test_table2_single_variant_shape () =
  let row = E.Table2.run_variant Mitos_workload.Attack.Reverse_tcp_rc4 in
  Alcotest.(check int) "faros blind to substitution decode" 0
    row.E.Table2.faros.Mitos_dift.Metrics.detected_bytes;
  Alcotest.(check bool) "mitos detects the payload" true
    (row.E.Table2.mitos.Mitos_dift.Metrics.detected_bytes
    >= Mitos_workload.Attack.payload_len);
  Alcotest.(check bool) "mitos uses less shadow space" true
    (row.E.Table2.mitos.Mitos_dift.Metrics.footprint_bytes
    < row.E.Table2.faros.Mitos_dift.Metrics.footprint_bytes)

let test_table2_goldens () =
  (* everything is deterministic from the fixed seeds, so the headline
     reproduction numbers are pinned exactly; any unintended semantic
     drift in the substrate shows up here *)
  let result = E.Table2.run_all () in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 result.E.Table2.rows in
  Alcotest.(check int) "FAROS total detected bytes" 977
    (sum (fun r -> r.E.Table2.faros.Mitos_dift.Metrics.detected_bytes));
  Alcotest.(check int) "MITOS total detected bytes" 2340
    (sum (fun r -> r.E.Table2.mitos.Mitos_dift.Metrics.detected_bytes));
  (* the paper's simultaneous-improvement claim, as inequalities *)
  Alcotest.(check bool) "time improves" true
    (result.E.Table2.time_improvement > 1.05);
  Alcotest.(check bool) "space improves" true
    (result.E.Table2.space_improvement > 1.5);
  Alcotest.(check bool) "detection improves >2x" true
    (result.E.Table2.detection_improvement > 2.0)

let test_latency_variant_smoke () =
  let row = E.Latency.run_variant Mitos_workload.Attack.Reverse_tcp_rc4 in
  Alcotest.(check bool) "run completed" true (row.E.Latency.total_steps > 1000);
  Alcotest.(check (option int)) "faros never alarms on rc4" None
    (List.assoc "faros" row.E.Latency.alarm_step);
  (match List.assoc "mitos" row.E.Latency.alarm_step with
  | Some step ->
    Alcotest.(check bool) "mitos alarms before the run ends" true
      (step < row.E.Latency.total_steps)
  | None -> Alcotest.fail "mitos missed the rc4 shell")

let test_conformance_staircase () =
  (* each conformance column must dominate the one to its left *)
  let outcomes =
    List.map
      (fun (_, policy) -> Mitos_dift.Litmus.run policy)
      (E.Validation.policies ())
  in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      List.iter2
        (fun (oa : Mitos_dift.Litmus.outcome) (ob : Mitos_dift.Litmus.outcome) ->
          Alcotest.(check bool)
            (oa.Mitos_dift.Litmus.case.Mitos_dift.Litmus.case_name
            ^ ": staircase monotone")
            true
            ((not oa.Mitos_dift.Litmus.tainted) || ob.Mitos_dift.Litmus.tainted))
        a b;
      pairwise rest
    | _ -> ()
  in
  pairwise outcomes

(* -- Report ------------------------------------------------------------------------ *)

let test_report_rendering () =
  let r = E.Report.create ~title:"T" in
  E.Report.text r "hello";
  E.Report.textf r "x=%d" 42;
  let tbl = Mitos_util.Table.create ~header:[ "a" ] () in
  Mitos_util.Table.add_row tbl [ "1" ];
  E.Report.table r tbl;
  let section = E.Report.finish r in
  Alcotest.(check string) "title" "T" (E.Report.title section);
  let md = E.Report.to_markdown section in
  let has needle =
    let n = String.length needle and h = String.length md in
    let rec go i = i + n <= h && (String.sub md i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "markdown heading" true (has "## T");
  Alcotest.(check bool) "text kept" true (has "x=42");
  Alcotest.(check bool) "table rendered" true (has "| a |")

(* -- Calib ---------------------------------------------------------------------------- *)

let test_calib_params () =
  let p = E.Calib.sensitivity_params () in
  Alcotest.(check (float 0.0)) "paper alpha" 1.5 p.Mitos.Params.alpha;
  Alcotest.(check (float 0.0)) "paper beta" 2.0 p.Mitos.Params.beta;
  Alcotest.(check int) "paper N_R = 4GiB x 10" (4 * 1024 * 1024 * 1024 * 10)
    p.Mitos.Params.total_tag_space;
  let a = E.Calib.attack_params in
  List.iter
    (fun ty ->
      Alcotest.(check (float 0.0)) "boosted type weight" 50.0
        (Mitos.Params.u a ty))
    E.Calib.tag_type_u_boost;
  Alcotest.(check bool) "table2 routes direct flows" true
    E.Calib.attack_engine_config.Mitos_dift.Engine.route_direct_through_policy

(* -- audit / blame / flow graph ------------------------------------------- *)

module Audit = Mitos_obs.Audit
module Pool = Mitos_parallel.Pool

(* The acceptance property: on the litmus suite, every over- and
   under-tainted byte (vs. the faros / propagate-all oracle bounds)
   traces back to at least one audit record. Exercised from both
   sides: a propagate-leaning parameterization (over findings on
   Propagate records) and a block-leaning one (under findings on
   Block records / evictions). *)
let test_blame_litmus_full_attribution () =
  let check_full name params expect_dir =
    let s = E.Blame.litmus params in
    Alcotest.(check bool) (name ^ ": found differences") true (s.E.Blame.total > 0);
    Alcotest.(check int)
      (name ^ ": every byte attributed")
      s.E.Blame.total s.E.Blame.attributed;
    List.iter
      (fun (f : E.Blame.finding) ->
        Alcotest.(check bool)
          (name ^ ": expected direction")
          true
          (f.E.Blame.direction = expect_dir))
      s.E.Blame.findings
  in
  check_full "propagate-leaning"
    (E.Calib.sensitivity_params ())
    E.Blame.Over;
  check_full "block-leaning"
    (E.Calib.sensitivity_params ~tau:100.0 ~u_net:0.00001 ())
    E.Blame.Under

(* The audit JSONL and the blame summary must not depend on the pool
   width: the audited run is sequential and only the oracles fan
   out. *)
let test_blame_jobs_deterministic () =
  let params = E.Calib.sensitivity_params () in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let s = E.Blame.litmus ~pool params in
        (Audit.to_jsonl s.E.Blame.audit, s.E.Blame.findings))
  in
  let jsonl1, findings1 = run 1 in
  let jsonl2, findings2 = run 2 in
  let jsonl4, findings4 = run 4 in
  Alcotest.(check string) "jsonl 1 = 2" jsonl1 jsonl2;
  Alcotest.(check string) "jsonl 1 = 4" jsonl1 jsonl4;
  Alcotest.(check bool) "findings 1 = 2" true (findings1 = findings2);
  Alcotest.(check bool) "findings 1 = 4" true (findings1 = findings4)

(* Same run, twice: flow-graph DOT and JSON exports are byte-stable. *)
let test_flowgraph_deterministic () =
  let run () =
    let audit = Audit.create () in
    let engine =
      W.Workload.run_live ~audit
        ~policy:(Mitos_dift.Policies.mitos (E.Calib.sensitivity_params ()))
        (W.Netbench.build ~seed:5 ~chunks:10 ())
    in
    let g =
      E.Flowgraph.build
        ~shadow:(Mitos_dift.Engine.shadow engine)
        (Audit.records audit)
    in
    (E.Flowgraph.to_dot g, E.Flowgraph.to_json g, List.length g.E.Flowgraph.edges)
  in
  let dot1, json1, edges1 = run () in
  let dot2, json2, _ = run () in
  Alcotest.(check string) "dot byte-identical" dot1 dot2;
  Alcotest.(check string) "json byte-identical" json1 json2;
  Alcotest.(check bool) "graph has edges" true (edges1 > 0)

(* Each engine's decisions reach only its own decision context. Two
   instrumented all-flows engines and an uninstrumented one share a
   two-domain pool: each obs counts exactly the Alg. 2 calls in its
   own log, and each log (and count) equals a solo run's. *)
let test_ctx_exact_on_pool () =
  let params = E.Calib.sensitivity_params () in
  let run ?obs ?audit seed =
    ignore
      (W.Workload.run_live ~config:E.Calib.attack_engine_config ?obs ?audit
         ~policy:(E.Calib.mitos_all_flows params)
         (W.Netbench.build ~seed ~chunks:10 ()))
  in
  let instrumented seed =
    (seed, Mitos_obs.Obs.create (), Audit.create ~capacity:(1 lsl 20) ())
  in
  let alg2_calls obs =
    Mitos_obs.Histogram.count
      (Mitos_obs.Registry.histogram (Mitos_obs.Obs.registry obs)
         "mitos_alg2_candidates")
  in
  let alg2_records audit =
    Array.fold_left
      (fun n (r : Audit.record) ->
        match r.Audit.body with
        | Audit.Decision { algorithm = "alg2"; _ } -> n + 1
        | _ -> n)
      0 (Audit.records audit)
  in
  let a = instrumented 5 and b = instrumented 6 in
  ignore
    (Pool.with_pool ~jobs:2 (fun pool ->
         Pool.map pool
           ~f:(function
             | Some (seed, obs, audit) -> run ~obs ~audit seed
             | None -> run 7)
           [ Some a; None; Some b ]));
  List.iter
    (fun (seed, obs, audit) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check int) (name "nothing dropped") 0 (Audit.dropped audit);
      Alcotest.(check bool) (name "alg2 ran") true (alg2_records audit > 0);
      Alcotest.(check int) (name "candidates count = alg2 records")
        (alg2_records audit) (alg2_calls obs);
      let _, solo_obs, solo_audit = instrumented seed in
      run ~obs:solo_obs ~audit:solo_audit seed;
      Alcotest.(check string) (name "log = solo run's")
        (Audit.to_jsonl solo_audit) (Audit.to_jsonl audit);
      Alcotest.(check int) (name "count = solo run's") (alg2_calls solo_obs)
        (alg2_calls obs))
    [ a; b ]

(* The flow graph's verdict counts must agree with the audit log. *)
let test_flowgraph_counts () =
  let audit = Audit.create () in
  Audit.set_context audit ~step:1 ~pc:10 ~flow:"addr-dep" ();
  let td verdict =
    { Audit.tag = "network#1"; under = -0.1; over = 0.2; marginal = 0.1;
      verdict }
  in
  Audit.record_decision audit ~algorithm:"alg1" ~space:1 ~pollution:0.0
    [ td Audit.Propagate ];
  Audit.record_decision audit ~algorithm:"alg1" ~space:1 ~pollution:0.0
    [ td Audit.Block ];
  Audit.record_eviction audit ~at:"mem:4" ~victim:"file#1"
    ~incoming:"network#1" ();
  let g = E.Flowgraph.build (Audit.records audit) in
  (match List.find_opt (fun (t : E.Flowgraph.tag_node) -> t.tag = "network#1") g.E.Flowgraph.tags with
  | Some t ->
    Alcotest.(check int) "propagated" 1 t.E.Flowgraph.propagated;
    Alcotest.(check int) "blocked" 1 t.E.Flowgraph.blocked
  | None -> Alcotest.fail "network#1 node missing");
  Alcotest.(check int) "one site" 1 (List.length g.E.Flowgraph.sites);
  (match g.E.Flowgraph.evictions with
  | [ ev ] ->
    Alcotest.(check string) "incoming" "network#1" ev.E.Flowgraph.incoming;
    Alcotest.(check string) "victim" "file#1" ev.E.Flowgraph.victim;
    Alcotest.(check int) "count" 1 ev.E.Flowgraph.count
  | evs -> Alcotest.failf "expected one eviction edge, got %d" (List.length evs))

(* -- bench compare (perf-regression gate) ----------------------------- *)

module J = Mitos_util.Minijson
module BC = E.Bench_compare

(* The end-to-end metrics with the bounds BENCHMARK.json sets. *)
let perf_spec =
  let metric name better bound =
    J.Obj [ ("name", J.Str name); ("better", J.Str better); ("bound", J.Num bound) ]
  in
  J.render
    (J.Obj
       [
         ( "end_to_end",
           J.List
             [
               metric "setup_s" "lower" 0.25;
               metric "throughput_per_s" "higher" 0.25;
               metric "latency_p50_us" "lower" 0.25;
               metric "peak_heap_mb" "lower" 0.15;
             ] );
       ])

(* One perf.exe results.json: [workloads] is (name, [(metric, value)]). *)
let perf_run ?(cpu = "Test CPU @ 2.0GHz") ?(nproc = "2") ?(traced = false)
    ?(correct = true) ?(failed = 0.0) workloads =
  let workload (name, metrics) =
    J.Obj
      [
        ("name", J.Str name);
        ("correct", J.Bool correct);
        ("attempted", J.Num 1000.0);
        ("failed", J.Num failed);
        ("error_rate", J.Num (failed /. 1000.0));
        ( "metrics",
          J.Obj
            (List.map
               (fun (m, v) -> (m, J.Obj [ ("value", J.Num v); ("unit", J.Str "") ]))
               metrics) );
      ]
  in
  J.render
    (J.Obj
       [
         ( "runner",
           J.Obj
             [
               ("nproc", J.Str nproc); ("ocaml", J.Str "5.1.1"); ("cpu", J.Str cpu);
               ("kernel", J.Str "6.18");
             ] );
         ("seed", J.Num 1.0);
         ("seconds", J.Num 5.0);
         ("traced", J.Bool traced);
         ("workloads", J.List (List.map workload workloads));
       ])

let decide ?(name = "decide_tcp") ?(setup = 0.0017) ?(tput = 24000.0)
    ?(p50 = 30.0) ?(heap = 29.0) () =
  ( name,
    [
      ("setup_s", setup); ("throughput_per_s", tput); ("latency_p50_us", p50);
      ("peak_heap_mb", heap);
    ] )

let replay ?(tput = 1.3e6) ?(p50 = 240000.0) () =
  ( "replay_netbench",
    [
      ("setup_s", 0.35); ("throughput_per_s", tput); ("latency_p50_us", p50);
      ("peak_heap_mb", 120.0);
    ] )

let compare_exn ~base ~change =
  match BC.of_json ~spec:perf_spec ~base ~change with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let row_names rows = List.map (fun r -> r.BC.workload ^ " " ^ r.BC.metric) rows

let test_bench_compare_ok () =
  let run () = perf_run [ replay (); decide () ] in
  let r = compare_exn ~base:[ run (); run () ] ~change:[ run (); run () ] in
  Alcotest.(check bool) "identical sides pass" true (BC.ok r);
  Alcotest.(check int) "every workload x metric compared" 8
    (List.length r.BC.rows);
  Alcotest.(check (list string)) "nothing skipped" [] r.BC.skipped;
  Alcotest.(check bool) "render says ok" true
    (contains (BC.render r) "ok: no metric regressed");
  (* 20% slower and 20% lower throughput, every run: inside the 25%
     bound, so a pass even though the ranges are disjoint *)
  let slower = perf_run [ replay ~tput:1.04e6 (); decide ~p50:36.0 () ] in
  let r = compare_exn ~base:[ run () ] ~change:[ slower ] in
  Alcotest.(check bool) "within the bound" true (BC.ok r);
  Alcotest.(check (list string)) "nothing unresolved" []
    (row_names (BC.unresolved r))

let test_bench_compare_noisy_reruns () =
  (* four back-to-back runs of unchanged code on a 2-vCPU box: the
     decide_tcp p50 spread wider than the 25% bound. Split ABAB either
     way, the medians may differ by more than the bound, but the ranges
     overlap, so the row is unresolved, not a regression. *)
  let runs = List.map (fun p50 -> perf_run [ decide ~p50 () ]) in
  let forward =
    compare_exn ~base:(runs [ 47.3; 29.2 ]) ~change:(runs [ 32.1; 27.8 ])
  in
  Alcotest.(check bool) "faster change passes" true (BC.ok forward);
  let reverse =
    compare_exn ~base:(runs [ 32.1; 27.8 ]) ~change:(runs [ 47.3; 29.2 ])
  in
  Alcotest.(check bool) "slower change passes" true (BC.ok reverse);
  Alcotest.(check (list string)) "but is reported unresolved"
    [ "decide_tcp latency_p50_us" ]
    (row_names (BC.unresolved reverse));
  Alcotest.(check bool) "render names it" true
    (contains (BC.render reverse) "unresolved (not failed): 1 metric(s)")

let test_bench_compare_regression () =
  (* a 1.5x slowdown of one stage: replay throughput down by a third
     (higher-better) and decide_mem p50 up by half (lower-better), in
     every run *)
  let base =
    List.map
      (fun k ->
        perf_run
          [
            replay ~tput:(1.3e6 *. k) ();
            decide ~name:"decide_mem" ~p50:(10.0 *. k) ();
          ])
      [ 1.0; 1.04; 0.97 ]
  in
  let change =
    List.map
      (fun k ->
        perf_run
          [
            replay ~tput:(1.3e6 *. k /. 1.5) ();
            decide ~name:"decide_mem" ~p50:(15.0 *. k) ();
          ])
      [ 1.0; 1.03; 0.98 ]
  in
  let r = compare_exn ~base ~change in
  Alcotest.(check bool) "not ok" false (BC.ok r);
  Alcotest.(check (list string)) "both directions caught"
    [ "replay_netbench throughput_per_s"; "decide_mem latency_p50_us" ]
    (row_names (BC.regressions r));
  let rendered = BC.render r in
  Alcotest.(check bool) "summary names workload and metric" true
    (contains rendered
       "REGRESSION: 2 metric(s): replay_netbench throughput_per_s, decide_mem \
        latency_p50_us");
  (* the same runs read the other way round are an improvement *)
  Alcotest.(check bool) "improvement is ok" true
    (BC.ok (compare_exn ~base:change ~change:base))

let test_bench_compare_reports_all_regressions () =
  (* three independent breaches in one comparison, on two workloads,
     all surface in a single pass *)
  let base = [ perf_run [ replay (); decide () ] ] in
  let change =
    [ perf_run [ replay ~p50:480000.0 (); decide ~tput:12000.0 ~heap:58.0 () ] ]
  in
  let r = compare_exn ~base ~change in
  Alcotest.(check (list string)) "every regressing row reported"
    [
      "replay_netbench latency_p50_us"; "decide_tcp throughput_per_s";
      "decide_tcp peak_heap_mb";
    ]
    (row_names (BC.regressions r));
  Alcotest.(check bool) "summary counts 3" true
    (contains (BC.render r) "REGRESSION: 3 metric(s)")

let test_bench_compare_nan () =
  let base = [ perf_run [ decide () ]; perf_run [ decide () ] ] in
  let r =
    compare_exn ~base
      ~change:[ perf_run [ decide () ]; perf_run [ decide ~tput:Float.nan () ] ]
  in
  Alcotest.(check (list string)) "a NaN change value regresses"
    [ "decide_tcp throughput_per_s" ]
    (row_names (BC.regressions r));
  Alcotest.(check bool) "render says why" true
    (contains (BC.render r) "NaN/missing in 1 run(s)");
  (* a workload that vanished from the change has no values at all *)
  let r = compare_exn ~base ~change:[ perf_run [ replay () ] ] in
  Alcotest.(check int) "a missing workload regresses on every metric" 4
    (List.length (BC.regressions r))

let test_bench_compare_checks () =
  let base = [ perf_run [ decide () ] ] in
  let fails ~change what =
    let r = compare_exn ~base ~change in
    Alcotest.(check bool) what false (BC.ok r);
    Alcotest.(check (list string)) "no metric row regressed" []
      (row_names (BC.regressions r));
    Alcotest.(check bool) "render says FAIL" true
      (contains (BC.render r) "FAIL: decide_tcp")
  in
  fails ~change:[ perf_run [ decide () ]; perf_run ~correct:false [ decide () ] ]
    "an incorrect change run fails";
  fails
    ~change:[ perf_run ~failed:3.0 [ decide () ] ]
    "a higher failed share fails";
  let r =
    compare_exn
      ~base:[ perf_run ~failed:3.0 [ decide () ] ]
      ~change:[ perf_run ~failed:3.0 [ decide () ] ]
  in
  Alcotest.(check bool) "an equal failed share passes" true (BC.ok r)

let test_bench_compare_incomparable () =
  let expect_incomparable ~change =
    match BC.of_json ~spec:perf_spec ~base:[ perf_run [ decide () ] ] ~change with
    | Error e ->
      Alcotest.(check bool) ("incomparable: " ^ e) true (contains e "incomparable")
    | Ok _ -> Alcotest.fail "runs from different runners were compared"
  in
  expect_incomparable ~change:[ perf_run ~cpu:"Other CPU" [ decide () ] ];
  expect_incomparable ~change:[ perf_run ~nproc:"4" [ decide () ] ]

let test_bench_compare_zero_baseline () =
  (* a zero baseline is compared in absolute terms: a lower-better row
     at 0 that becomes 5 regresses, one that stays at 0 passes *)
  let at setup = [ perf_run [ decide ~setup () ] ] in
  let r = compare_exn ~base:(at 0.0) ~change:(at 5.0) in
  Alcotest.(check (list string)) "0 -> 5 regresses" [ "decide_tcp setup_s" ]
    (row_names (BC.regressions r));
  Alcotest.(check bool) "render shows the absolute change" true
    (contains (BC.render r) "+5.00 abs");
  let r = compare_exn ~base:(at 0.0) ~change:(at 0.0) in
  Alcotest.(check bool) "0 -> 0 passes" true (BC.ok r);
  Alcotest.(check (float 0.0)) "0 -> 0 is no change, not NaN" 0.0
    (List.hd r.BC.rows).BC.change_pct

let test_bench_compare_skipped_and_errors () =
  (* a metric missing on both sides is skipped, not failed *)
  let without_heap =
    ("decide_tcp", List.remove_assoc "peak_heap_mb" (snd (decide ())))
  in
  let r =
    compare_exn
      ~base:[ perf_run [ without_heap ] ]
      ~change:[ perf_run [ without_heap ] ]
  in
  Alcotest.(check bool) "still ok" true (BC.ok r);
  Alcotest.(check int) "three rows compared" 3 (List.length r.BC.rows);
  Alcotest.(check (list string)) "the missing one skipped"
    [ "decide_tcp peak_heap_mb" ] r.BC.skipped;
  let run = perf_run [ decide () ] in
  let expect_error what ~spec ~base ~change =
    match BC.of_json ~spec ~base ~change with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected Error: " ^ what)
  in
  expect_error "unparseable" ~spec:perf_spec ~base:[ run ] ~change:[ "not json{" ];
  expect_error "not a results file" ~spec:perf_spec ~base:[ run ] ~change:[ "{}" ];
  expect_error "traced run" ~spec:perf_spec ~base:[ run ]
    ~change:[ perf_run ~traced:true [ decide () ] ];
  expect_error "no change run" ~spec:perf_spec ~base:[ run ] ~change:[];
  expect_error "no end_to_end" ~spec:"{}" ~base:[ run ] ~change:[ run ];
  match
    BC.of_files ~spec:"/nonexistent-spec.json" ~base:[ "/nonexistent-a.json" ]
      ~change:[ "/nonexistent-b.json" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error for missing files"

(* -- telemetry pilot --------------------------------------------------- *)

let test_telemetry_pilot_breach () =
  (* a rule no real run can satisfy forces the over-taint breach path:
     /healthz must flip to 503 and record the transition *)
  let forced =
    E.Telemetry.default_rules
    @ [
        Mitos_obs.Alerts.threshold ~name:"forced" ~signal:"over_taint_ratio"
          ~cmp:Mitos_obs.Alerts.Le ~bound:0.01 ();
      ]
  in
  let p =
    E.Telemetry.pilot ~rules:forced ~sample_every:64
      ~build:(fun () -> W.Netbench.build ~seed:5 ~chunks:10 ())
      ()
  in
  p.E.Telemetry.replay ();
  let slo = Option.get p.E.Telemetry.src.E.Telemetry.slo in
  Alcotest.(check bool) "forced rule breached" false
    (Mitos_obs.Alerts.healthy slo);
  Alcotest.(check bool) "healthz 503" false
    (fst (E.Telemetry.health_verdict p.E.Telemetry.src));
  Alcotest.(check bool) "breach history non-empty" true
    (Mitos_obs.Alerts.breaches slo <> []);
  (* the snapshot endpoint body is real JSON our own parser accepts *)
  let snapshot = E.Telemetry.snapshot_json p.E.Telemetry.src in
  let j = Mitos_util.Minijson.parse snapshot in
  let steps =
    Option.bind
      (Mitos_util.Minijson.path [ "progress"; "step" ] j)
      Mitos_util.Minijson.to_float
  in
  let progress = Mitos_dift.Engine.progress p.E.Telemetry.engine in
  Alcotest.(check (option (float 0.0))) "progress.step in snapshot"
    (Some (float_of_int progress.Mitos_dift.Engine.prog_step))
    steps;
  Alcotest.(check bool) "sweep gauges exported" true
    (let metrics = Mitos_obs.Obs.prometheus p.E.Telemetry.src.E.Telemetry.obs in
     let contains hay needle =
       let n = String.length needle and h = String.length hay in
       let rec go i =
         i + n <= h && (String.sub hay i n = needle || go (i + 1))
       in
       n = 0 || go 0
     in
     contains metrics "mitos_sweep_over_taint_bound"
     && contains metrics "mitos_engine_ifp_decisions_total")

(* -- SLO goldens ---------------------------------------------------------- *)

(* Compare against a checked-in transcript; the dune stanza copies
   [golden/] next to the test binary. *)
let check_golden file actual =
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" file) In_channel.input_all
  in
  Alcotest.(check string) file expected actual

(* The serve-decisions configuration: the default rules (whose signals
   this stream never carries, so they stay pending), a --slo rule that
   breaches, recovers and breaches again, a --slo rule over a signal
   that never arrives, and a page and a ticket --burn-slo rule, fed
   the way the server's tick feeds them. Every step's /healthz verdict
   and /snapshot.json up to "metrics" go into the transcript. *)
let serve_slo_transcript ~window =
  let module Obs = Mitos_obs.Obs in
  let module Alerts = Mitos_obs.Alerts in
  let module Tsdb = Mitos_obs.Tsdb in
  let ok = function Ok r -> r | Error e -> Alcotest.fail e in
  let thresholds =
    E.Telemetry.default_rules
    @ List.map
        (fun s -> ok (Alerts.parse_threshold s))
        [ "hot:load<=5"; "never_sent>=1" ]
  in
  let burns =
    List.map
      (fun s -> ok (Alerts.parse_rule s))
      [
        "lat_page:lat<=100;budget=0.1;windows=2/4@2@page;for=1;keep=2";
        "lat_ticket:lat<=100;budget=0.1;windows=6/12@1@ticket;for=3";
      ]
  in
  let slo = Alerts.create ~window ~rules:(thresholds @ burns) () in
  let obs = Obs.create ~clock:(Mitos_obs.Obs_clock.logical ()) () in
  let src = E.Telemetry.source ~slo obs in
  let buf = Buffer.create 65536 in
  for step = 1 to 40 do
    let at = float_of_int step in
    let load =
      if step >= 8 && step < 14 then 9.0
      else if step >= 22 && step < 26 then 9.0
      else if step >= 14 && step < 22 then 2.0
      else 1.0
    in
    let lat = if step >= 10 && step < 24 then 500.0 else 10.0 in
    let signals = [ ("load", load); ("lat", lat) ] in
    let db = Alerts.tsdb slo in
    Tsdb.observe db ~at signals;
    Tsdb.add db "net_requests_total" ~at (float_of_int (7 * step));
    Tsdb.add db "net_request_rate" ~at
      (Tsdb.rate db "net_requests_total" ~at ~window:15.0);
    Alerts.eval slo ~at;
    let healthy, body = E.Telemetry.health_verdict src in
    let snapshot = E.Telemetry.snapshot_json src in
    let cut =
      let marker = ",\"metrics\":" in
      let rec find i =
        if String.sub snapshot i (String.length marker) = marker then i
        else find (i + 1)
      in
      String.sub snapshot 0 (find 0)
    in
    Buffer.add_string buf
      (Printf.sprintf "== step %d healthy=%b\n%s%s\n" step healthy body cut)
  done;
  Buffer.contents buf

let test_serve_slo_golden_latest () =
  check_golden "serve_slo_window0.txt" (serve_slo_transcript ~window:0.0)

let test_serve_slo_golden_window () =
  check_golden "serve_slo_window3.txt" (serve_slo_transcript ~window:3.0)

let () =
  Alcotest.run "mitos_experiments"
    [
      ( "fig3",
        [
          Alcotest.test_case "under decreasing" `Quick test_fig3_under_decreasing;
          Alcotest.test_case "over increasing" `Quick test_fig3_over_increasing;
          Alcotest.test_case "alpha steepness" `Quick test_fig3_alpha_steepness;
        ] );
      ( "fig7",
        [
          Alcotest.test_case "tau monotonicity" `Slow test_fig7_tau_monotonicity;
          Alcotest.test_case "submarginal signs" `Slow test_fig7_submarginal_signs;
          Alcotest.test_case "over trends up" `Slow test_fig7_over_marginal_trends_up;
          Alcotest.test_case "bucketize math" `Quick test_fig7_bucketize_math;
        ] );
      ( "fig8",
        [ Alcotest.test_case "alpha improves balance" `Slow test_fig8_alpha_improves_balance ] );
      ( "fig9",
        [ Alcotest.test_case "u boost monotone" `Slow test_fig9_u_boost_monotone ] );
      ( "table2",
        [
          Alcotest.test_case "rc4 variant shape" `Slow test_table2_single_variant_shape;
          Alcotest.test_case "headline goldens" `Slow test_table2_goldens;
        ] );
      ( "report",
        [ Alcotest.test_case "rendering" `Quick test_report_rendering ] );
      ( "latency",
        [
          Alcotest.test_case "rc4 variant smoke" `Slow
            test_latency_variant_smoke;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "policy staircase monotone" `Quick
            test_conformance_staircase;
        ] );
      ( "audit",
        [
          Alcotest.test_case "blame litmus full attribution" `Quick
            test_blame_litmus_full_attribution;
          Alcotest.test_case "blame jobs-deterministic" `Quick
            test_blame_jobs_deterministic;
          Alcotest.test_case "flowgraph deterministic" `Quick
            test_flowgraph_deterministic;
          Alcotest.test_case "flowgraph counts" `Quick test_flowgraph_counts;
          Alcotest.test_case "decision ctx exact on a pool" `Quick
            test_ctx_exact_on_pool;
        ] );
      ( "calib",
        [ Alcotest.test_case "params" `Quick test_calib_params ] );
      ( "telemetry",
        [
          Alcotest.test_case "pilot forced breach + snapshot" `Quick
            test_telemetry_pilot_breach;
          Alcotest.test_case "serve slo golden, latest sample" `Quick
            test_serve_slo_golden_latest;
          Alcotest.test_case "serve slo golden, window mean" `Quick
            test_serve_slo_golden_window;
        ] );
      ( "bench-compare",
        [
          Alcotest.test_case "within tolerance" `Quick test_bench_compare_ok;
          Alcotest.test_case "noisy reruns are unresolved" `Quick
            test_bench_compare_noisy_reruns;
          Alcotest.test_case "regressions both directions" `Quick
            test_bench_compare_regression;
          Alcotest.test_case "all regressions in one pass" `Quick
            test_bench_compare_reports_all_regressions;
          Alcotest.test_case "NaN or missing change value fails" `Quick
            test_bench_compare_nan;
          Alcotest.test_case "incorrect run or failed share fails" `Quick
            test_bench_compare_checks;
          Alcotest.test_case "different runner is incomparable" `Quick
            test_bench_compare_incomparable;
          Alcotest.test_case "skipped metrics and errors" `Quick
            test_bench_compare_skipped_and_errors;
          Alcotest.test_case "zero baseline compares absolutely" `Quick
            test_bench_compare_zero_baseline;
        ] );
    ]
