open Mitos_tag
open Mitos

let net i = Tag.make Tag_type.Network i
let file i = Tag.make Tag_type.File i

let base_params ?(alpha = 1.5) ?(beta = 2.0) ?(tau = 1.0) ?(tau_scale = 1.0)
    ?(u = []) ?(o = []) () =
  Params.make ~alpha ~beta ~tau ~tau_scale ~u ~o ~total_tag_space:10_000
    ~mem_capacity:1_000 ()

let random_ty =
  QCheck.Gen.oneofl [ Tag_type.Network; Tag_type.File; Tag_type.Process ]

(* -- Params ------------------------------------------------------------ *)

let test_params_defaults () =
  let p = Params.default ~total_tag_space:100 ~mem_capacity:10 in
  Alcotest.(check (float 0.0)) "alpha" 1.5 p.Params.alpha;
  Alcotest.(check (float 0.0)) "beta" 2.0 p.Params.beta;
  Alcotest.(check (float 0.0)) "tau" 1.0 p.Params.tau;
  Alcotest.(check (float 0.0)) "u default" 1.0 (Params.u p Tag_type.Network);
  Alcotest.(check (float 0.0)) "tau_eff" 1e4 (Params.tau_effective p)

let test_params_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "alpha 0" true (bad (fun () -> base_params ~alpha:0.0 ()));
  Alcotest.(check bool) "beta < 1" true (bad (fun () -> base_params ~beta:0.5 ()));
  Alcotest.(check bool) "tau < 0" true (bad (fun () -> base_params ~tau:(-1.0) ()));
  Alcotest.(check bool) "zero weight" true
    (bad (fun () -> base_params ~u:[ (Tag_type.File, 0.0) ] ()));
  Alcotest.(check bool) "bad space" true
    (bad (fun () ->
         Params.make ~total_tag_space:0 ~mem_capacity:1 ()))

let test_params_with () =
  let p = base_params () in
  let p2 = Params.with_alpha p 2.0 in
  Alcotest.(check (float 0.0)) "with_alpha" 2.0 p2.Params.alpha;
  Alcotest.(check (float 0.0)) "original intact" 1.5 p.Params.alpha;
  let p3 = Params.with_u p Tag_type.File 5.0 in
  Alcotest.(check (float 0.0)) "with_u" 5.0 (Params.u p3 Tag_type.File);
  Alcotest.(check (float 0.0)) "other u intact" 1.0 (Params.u p3 Tag_type.Network);
  let p4 = Params.with_o p Tag_type.File 3.0 in
  Alcotest.(check (float 0.0)) "with_o" 3.0 (Params.o p4 Tag_type.File)

(* -- Cost ----------------------------------------------------------------- *)

let test_phi_values () =
  (* alpha = 2: phi(n) = n^-1 / 1 *)
  Alcotest.(check (float 1e-9)) "alpha 2" 0.25 (Cost.phi ~alpha:2.0 4.0);
  (* alpha = 1: log limit *)
  Alcotest.(check (float 1e-9)) "alpha 1" (-.log 4.0) (Cost.phi ~alpha:1.0 4.0);
  (* alpha = 0.5: n^0.5 / (-0.5) *)
  Alcotest.(check (float 1e-9)) "alpha 0.5" (-4.0) (Cost.phi ~alpha:0.5 4.0);
  Alcotest.(check bool) "n=0 alpha>1 diverges" true
    (Cost.phi ~alpha:1.5 0.0 = infinity)

let qcheck_phi_decreasing =
  QCheck.Test.make ~name:"phi monotone decreasing in n" ~count:300
    QCheck.(triple (float_range 0.3 4.0) (float_range 1.0 50.0) (float_range 0.1 10.0))
    (fun (alpha, n, dn) ->
      QCheck.assume (Float.abs (alpha -. 1.0) > 1e-6);
      Cost.phi ~alpha (n +. dn) <= Cost.phi ~alpha n +. 1e-12)

let qcheck_phi_convex =
  QCheck.Test.make ~name:"phi convex (second difference >= 0)" ~count:300
    QCheck.(pair (float_range 0.3 4.0) (float_range 1.0 50.0))
    (fun (alpha, n) ->
      QCheck.assume (Float.abs (alpha -. 1.0) > 1e-6);
      let h = 0.01 in
      let second =
        Cost.phi ~alpha (n +. h) +. Cost.phi ~alpha (n -. h)
        -. (2.0 *. Cost.phi ~alpha n)
      in
      second >= -1e-9)

let test_over_cost () =
  let p = base_params ~beta:2.0 ~tau:1.0 () in
  (* over = tau_eff * N_R * (P/N_R)^2 = 1 * 10000 * (100/10000)^2 = 1 *)
  Alcotest.(check (float 1e-9)) "quadratic" 1.0 (Cost.over_of_pollution p 100.0);
  let p3 = base_params ~beta:3.0 () in
  Alcotest.(check (float 1e-9)) "cubic" 0.01 (Cost.over_of_pollution p3 100.0)

let test_submarginals () =
  let p = base_params ~alpha:2.0 () in
  Alcotest.(check (float 1e-12)) "under at n=4" (-0.0625)
    (Cost.under_submarginal p Tag_type.Network ~n:4.0);
  Alcotest.(check bool) "under at n=0 is -inf" true
    (Cost.under_submarginal p Tag_type.Network ~n:0.0 = neg_infinity);
  (* over submarginal: tau_eff * beta * (P/N_R)^(beta-1) * o = 1*2*(100/10000) = 0.02 *)
  Alcotest.(check (float 1e-12)) "over" 0.02
    (Cost.over_submarginal p Tag_type.Network ~pollution:100.0);
  Alcotest.(check (float 1e-12)) "marginal is the sum" (-0.0425)
    (Cost.marginal p Tag_type.Network ~n:4.0 ~pollution:100.0)

let test_weights_in_marginal () =
  let p = base_params ~u:[ (Tag_type.Network, 10.0) ] ~o:[ (Tag_type.File, 3.0) ] () in
  let under_net = Cost.under_submarginal p Tag_type.Network ~n:2.0 in
  let under_file = Cost.under_submarginal p Tag_type.File ~n:2.0 in
  Alcotest.(check (float 1e-12)) "u scales under 10x" (under_file *. 10.0) under_net;
  let over_net = Cost.over_submarginal p Tag_type.Network ~pollution:50.0 in
  let over_file = Cost.over_submarginal p Tag_type.File ~pollution:50.0 in
  Alcotest.(check (float 1e-12)) "o scales over 3x" (over_net *. 3.0) over_file

let test_under_total_matches_manual () =
  let p = base_params ~alpha:2.0 () in
  let stats = Tag_stats.create () in
  for _ = 1 to 4 do Tag_stats.incr stats (net 1) done;
  for _ = 1 to 2 do Tag_stats.incr stats (file 1) done;
  (* phi(4) = 0.25, phi(2) = 0.5 *)
  Alcotest.(check (float 1e-9)) "under total" 0.75 (Cost.under_total p stats);
  Alcotest.(check (float 1e-9)) "pollution" 6.0 (Cost.weighted_pollution p stats);
  Alcotest.(check (float 1e-9)) "total = under + over"
    (Cost.under_total p stats +. Cost.over_total p stats)
    (Cost.total p stats)

let qcheck_over_submarginal_increasing =
  QCheck.Test.make ~name:"over submarginal nondecreasing in pollution" ~count:300
    QCheck.(pair (float_range 0.0 5000.0) (float_range 0.0 1000.0))
    (fun (pollution, dp) ->
      let p = base_params ~beta:2.5 () in
      Cost.over_submarginal p Tag_type.Network ~pollution:(pollution +. dp)
      >= Cost.over_submarginal p Tag_type.Network ~pollution -. 1e-12)

(* -- Decision ---------------------------------------------------------------- *)

let env_of counts pollution =
  let table = Hashtbl.create 8 in
  List.iter (fun (tag, n) -> Hashtbl.replace table tag n) counts;
  {
    Decision.count = (fun tag -> Option.value ~default:0 (Hashtbl.find_opt table tag));
    pollution;
  }

let test_alg1_first_copy_always_propagates () =
  let p = base_params () in
  let env = env_of [] 5000.0 in
  Alcotest.(check bool) "n=0 propagates despite pollution" true
    (Decision.alg1 p env (net 1) = Decision.Propagate)

let test_alg1_tau_zero_always_propagates () =
  let p = base_params ~tau:0.0 () in
  let env = env_of [ (net 1, 1_000_000) ] 9999.0 in
  Alcotest.(check bool) "tau=0" true
    (Decision.alg1 p env (net 1) = Decision.Propagate)

let test_alg1_blocks_overpropagated () =
  let p = base_params ~alpha:2.0 () in
  (* under = -1/n^2 tiny; over = 2*(P/N_R) big *)
  let env = env_of [ (net 1, 1000) ] 5000.0 in
  Alcotest.(check bool) "blocked" true
    (Decision.alg1 p env (net 1) = Decision.Block)

let test_alg2_respects_space () =
  let p = base_params ~tau:0.0 () in
  (* everything has negative marginal; space limits to 2 *)
  let env = env_of [] 0.0 in
  let accepted =
    Decision.alg2_accepted p env ~space:2 [ net 1; net 2; net 3; net 4 ]
  in
  Alcotest.(check int) "only 2 accepted" 2 (List.length accepted)

let test_alg2_ordering () =
  let p = base_params ~alpha:2.0 ~tau:0.0 () in
  (* marginals: n=10 -> -0.01, n=1 -> -1, n=3 -> -1/9 *)
  let env = env_of [ (net 1, 10); (net 2, 1); (net 3, 3) ] 0.0 in
  let ranked = Decision.alg2 p env ~space:3 [ net 1; net 2; net 3 ] in
  Alcotest.(check (list string)) "sorted by marginal increasingly"
    [ "network#2"; "network#3"; "network#1" ]
    (List.map (fun r -> Tag.to_string r.Decision.tag) ranked)

let test_alg2_pollution_recompute_blocks_later () =
  (* Construct a case where accepting the first tag pushes the second
     tag's recomputed marginal above zero. *)
  let p =
    base_params ~alpha:2.0 ~beta:2.0 ~tau:1.0
      ~o:[ (Tag_type.Network, 2000.0) ]
      ()
  in
  (* both tags at n=10: under = -0.01.
     initial pollution 0 -> over = 0 -> both initially negative.
     after accepting one: pollution += o = 2000 -> over = 2*2000/10000*2000
     ... = tau_eff*beta*(P/N_R)^(beta-1)*o = 1*2*0.2*2000 = 800 > 0.01. *)
  let env = env_of [ (net 1, 10); (net 2, 10) ] 0.0 in
  let ranked = Decision.alg2 p env ~space:5 [ net 1; net 2 ] in
  let verdicts = List.map (fun r -> r.Decision.verdict) ranked in
  Alcotest.(check bool) "first accepted, second blocked" true
    (verdicts = [ Decision.Propagate; Decision.Block ]);
  (* without recompute both pass *)
  let ranked' = Decision.alg2_no_recompute p env ~space:5 [ net 1; net 2 ] in
  Alcotest.(check bool) "no recompute: both pass" true
    (List.for_all (fun r -> r.Decision.verdict = Decision.Propagate) ranked')

let test_alg2_empty_and_negative_space () =
  let p = base_params () in
  let env = env_of [] 0.0 in
  Alcotest.(check int) "empty candidates" 0
    (List.length (Decision.alg2 p env ~space:3 []));
  Alcotest.(check bool) "negative space raises" true
    (try ignore (Decision.alg2 p env ~space:(-1) [ net 1 ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "zero space blocks all" 0
    (List.length (Decision.alg2_accepted p env ~space:0 [ net 1 ]))

let test_alg2_accepted_have_nonpositive_marginal () =
  let p = base_params ~alpha:1.5 () in
  let env = env_of [ (net 1, 2); (net 2, 50); (file 1, 7) ] 800.0 in
  let ranked = Decision.alg2 p env ~space:10 [ net 1; net 2; file 1 ] in
  List.iter
    (fun r ->
      if r.Decision.verdict = Decision.Propagate then
        Alcotest.(check bool) "accepted marginal <= 0" true
          (r.Decision.marginal <= 0.0))
    ranked

let test_alg2_paper_matches_homogeneous () =
  let p = base_params ~alpha:1.5 ~tau:0.5 () in
  let env = env_of [ (net 1, 3); (net 2, 40); (file 1, 7) ] 500.0 in
  let candidates = [ net 1; net 2; file 1 ] in
  let verdicts l =
    List.map
      (fun r -> (Tag.to_string r.Decision.tag, r.Decision.verdict))
      l
  in
  Alcotest.(check bool) "homogeneous o: literal = scanning variant" true
    (verdicts (Decision.alg2_paper p env ~space:3 candidates)
    = verdicts (Decision.alg2 p env ~space:3 candidates))

let test_alg2_paper_early_break () =
  (* heterogeneous o: the first acceptance (a heavily polluting
     network tag) pushes the next candidate's recomputed marginal
     positive; the literal while loop then stops for good *)
  let p =
    base_params ~alpha:2.0 ~beta:2.0 ~tau:1.0
      ~u:[ (Tag_type.Network, 500.0) ]
      ~o:[ (Tag_type.Network, 3000.0) ]
      ()
  in
  (* initial marginals at pollution 0: net#1 (n=1,u=500) -> -500;
     file#1 (n=1) -> -1; file#2 (n=2) -> -0.25.
     accepting net#1 adds 3000 pollution: over submarginal for files
     becomes 2*(3000/10000) = 0.6, so file#1 recomputes to -0.4
     (accepted, +1 pollution) and file#2 to > +0.35 (blocked). *)
  let env = env_of [ (net 1, 1); (file 1, 1); (file 2, 2) ] 0.0 in
  let literal = Decision.alg2_paper p env ~space:3 [ net 1; file 1; file 2 ] in
  let accepted =
    List.filter_map
      (fun r ->
        if r.Decision.verdict = Decision.Propagate then
          Some (Tag.to_string r.Decision.tag)
        else None)
      literal
  in
  Alcotest.(check (list string)) "stops at the first positive marginal"
    [ "network#1"; "file#1" ] accepted

let test_of_stats_env () =
  let p = base_params () in
  let stats = Tag_stats.create () in
  Tag_stats.incr stats (net 1);
  Tag_stats.incr stats (net 1);
  let env = Decision.of_stats p stats in
  Alcotest.(check int) "count" 2 (env.Decision.count (net 1));
  Alcotest.(check (float 1e-9)) "pollution" 2.0 env.Decision.pollution

(* -- Solver --------------------------------------------------------------------- *)

let solver_items p tys = Array.of_list (List.map (fun ty -> Solver.item p ty) tys)

let test_solver_kkt_constraints () =
  let p = base_params ~tau:1.0 () in
  let items = solver_items p [ Tag_type.Network; Tag_type.File; Tag_type.Process ] in
  let n = Solver.solve_kkt p items in
  Array.iteri
    (fun j x ->
      Alcotest.(check bool) "within box" true
        (x >= 0.0 && x <= float_of_int items.(j).Solver.cap))
    n;
  let total = Array.fold_left ( +. ) 0.0 n in
  Alcotest.(check bool) "within budget" true
    (total <= float_of_int p.Params.total_tag_space +. 1e-6)

let test_solver_kkt_stationarity () =
  let p = base_params ~tau:1.0 () in
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let n = Solver.solve_kkt p items in
  let grad = Solver.gradient p items n in
  Array.iter
    (fun g ->
      Alcotest.(check bool) "gradient ~ 0 at interior optimum" true
        (Float.abs g < 1e-3))
    grad

let test_solver_kkt_weights_shift_allocation () =
  let p = base_params ~u:[ (Tag_type.Network, 8.0) ] () in
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let n = Solver.solve_kkt p items in
  Alcotest.(check bool) "heavier u gets more copies" true (n.(0) > n.(1))

let test_solver_gradient_matches_kkt () =
  let p = base_params ~tau:1.0 () in
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let kkt = Solver.solve_kkt p items in
  let gd = Solver.solve_gradient ~iterations:30_000 ~step:0.02 p items in
  let obj_kkt = Solver.objective p items kkt in
  let obj_gd = Solver.objective p items gd in
  Alcotest.(check bool) "objectives close" true
    (Float.abs (obj_kkt -. obj_gd) /. Float.abs obj_kkt < 0.05)

let test_solver_greedy_near_kkt () =
  let p = base_params ~tau:1.0 () in
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let kkt = Solver.solve_kkt p items in
  let greedy = Solver.solve_greedy_integer p items in
  Array.iteri
    (fun j x ->
      Alcotest.(check bool) "greedy within 1 of relaxed optimum" true
        (Float.abs (float_of_int greedy.(j) -. x) <= 1.5))
    kkt

let test_solver_brute_force () =
  let p =
    Params.make ~tau:1.0 ~tau_scale:1.0 ~total_tag_space:100 ~mem_capacity:30 ()
  in
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let brute = Solver.solve_brute_force ~max_n:30 p items in
  let greedy = Solver.solve_greedy_integer p items in
  let obj n = Solver.objective p items (Array.map float_of_int n) in
  Alcotest.(check bool) "greedy no better than brute-force optimum" true
    (obj brute <= obj greedy +. 1e-9);
  Alcotest.(check bool) "greedy within 5% of integer optimum" true
    (obj greedy <= obj brute +. (0.05 *. Float.abs (obj brute)));
  Alcotest.(check bool) "too-large space raises" true
    (try ignore (Solver.solve_brute_force ~max_n:1000 p
                   (solver_items p [ Tag_type.Network; Tag_type.File; Tag_type.Process ]));
       false
     with Invalid_argument _ -> true)

let test_branch_and_bound_matches_brute_force () =
  let p =
    Params.make ~tau:1.0 ~tau_scale:1.0 ~total_tag_space:100 ~mem_capacity:30 ()
  in
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let brute = Solver.solve_brute_force ~max_n:30 p items in
  let bb, stats = Solver.solve_branch_and_bound p items in
  let obj n = Solver.objective p items (Array.map float_of_int n) in
  Alcotest.(check (float 1e-9)) "same optimum value" (obj brute) (obj bb);
  Alcotest.(check (float 1e-9)) "stats carry the optimum" (obj bb)
    stats.Solver.optimum;
  Alcotest.(check bool) "search did prune" true (stats.Solver.nodes_pruned > 0)

let qcheck_branch_and_bound_exact =
  QCheck.Test.make ~name:"B&B = brute force on random small instances"
    ~count:25
    QCheck.(
      make
        Gen.(
          triple
            (list_size (1 -- 3) random_ty)
            (float_range 0.5 2.5) (float_range 0.2 3.0)))
    (fun (tys, alpha, tau) ->
      let p =
        Params.make ~alpha ~tau ~tau_scale:1.0 ~total_tag_space:60
          ~mem_capacity:20 ()
      in
      let items = Array.of_list (List.map (fun ty -> Solver.item p ty) tys) in
      let brute = Solver.solve_brute_force ~max_n:20 p items in
      let bb, _ = Solver.solve_branch_and_bound p items in
      let obj n = Solver.objective p items (Array.map float_of_int n) in
      Float.abs (obj brute -. obj bb) < 1e-7)

let test_branch_and_bound_node_limit () =
  let p =
    Params.make ~tau:0.001 ~tau_scale:1.0 ~total_tag_space:1_000_000
      ~mem_capacity:100_000 ()
  in
  let items =
    solver_items p
      [ Tag_type.Network; Tag_type.File; Tag_type.Process; Tag_type.Kernel ]
  in
  (* even the root visit counts against the limit *)
  Alcotest.(check bool) "limit enforced" true
    (try ignore (Solver.solve_branch_and_bound ~node_limit:0 p items); false
     with Invalid_argument _ -> true)

let test_solver_budget_binds () =
  let p =
    Params.make ~tau:0.0001 ~tau_scale:1.0 ~total_tag_space:50 ~mem_capacity:40 ()
  in
  (* tiny over cost: unconstrained optimum wants the caps; budget 50 binds *)
  let items = solver_items p [ Tag_type.Network; Tag_type.File ] in
  let n = Solver.solve_kkt p items in
  let total = Array.fold_left ( +. ) 0.0 n in
  Alcotest.(check (float 1.0)) "budget binds" 50.0 total

(* property tests over random instances ---------------------------------- *)

let qcheck_kkt_feasible =
  QCheck.Test.make ~name:"KKT solution always feasible" ~count:60
    QCheck.(
      make
        Gen.(
          triple
            (list_size (1 -- 4) random_ty)
            (float_range 0.5 3.0) (float_range 0.1 10.0)))
    (fun (tys, alpha, tau) ->
      let p =
        Params.make ~alpha ~tau ~tau_scale:1.0 ~total_tag_space:5_000
          ~mem_capacity:500 ()
      in
      let items = Array.of_list (List.map (fun ty -> Solver.item p ty) tys) in
      let n = Solver.solve_kkt p items in
      let total = Array.fold_left ( +. ) 0.0 n in
      Array.for_all
        (fun x -> x >= -1e-9 && x <= float_of_int p.Params.mem_capacity +. 1e-6)
        n
      && total <= float_of_int p.Params.total_tag_space +. 1e-3)

let qcheck_greedy_never_beats_kkt =
  QCheck.Test.make
    ~name:"greedy integer objective >= relaxed optimum" ~count:40
    QCheck.(
      make Gen.(pair (list_size (1 -- 3) random_ty) (float_range 0.5 2.5)))
    (fun (tys, tau) ->
      let p =
        Params.make ~tau ~tau_scale:1.0 ~total_tag_space:2_000
          ~mem_capacity:200 ()
      in
      let items = Array.of_list (List.map (fun ty -> Solver.item p ty) tys) in
      let kkt = Solver.solve_kkt p items in
      let greedy = Solver.solve_greedy_integer p items in
      Solver.objective p items (Array.map float_of_int greedy)
      >= Solver.objective p items kkt -. 1e-6)

let qcheck_alg2_respects_space_and_order =
  QCheck.Test.make ~name:"alg2: bounded by space, sorted, criterion" ~count:200
    QCheck.(
      make
        Gen.(
          triple (int_range 0 6)
          (list_size (0 -- 8) (pair (int_range 1 30) (int_range 0 400)))
          (float_range 0.0 2.0)))
    (fun (space, candidates, tau) ->
      let p =
        Params.make ~tau ~tau_scale:10.0 ~total_tag_space:10_000
          ~mem_capacity:1_000 ()
      in
      let candidates =
        List.mapi (fun i (id, n) -> (Tag.make Tag_type.Network (id + (i * 100)), n))
          candidates
      in
      let table = Hashtbl.create 8 in
      List.iter (fun (tag, n) -> Hashtbl.replace table tag n) candidates;
      let env =
        {
          Decision.count =
            (fun tag -> Option.value ~default:0 (Hashtbl.find_opt table tag));
          pollution = 300.0;
        }
      in
      let ranked = Decision.alg2 p env ~space (List.map fst candidates) in
      let accepted =
        List.filter (fun r -> r.Decision.verdict = Decision.Propagate) ranked
      in
      (* bounded by space *)
      List.length accepted <= space
      (* every accepted tag had non-positive marginal at decision time *)
      && List.for_all (fun r -> r.Decision.marginal <= 0.0) accepted
      (* output covers exactly the candidates *)
      && List.length ranked = List.length candidates)

let qcheck_alg2_paper_equals_scanning_homogeneous =
  (* with homogeneous o the literal while-loop and the scanning variant
     are the same function *)
  QCheck.Test.make ~name:"alg2 literal = scanning when o homogeneous"
    ~count:200
    QCheck.(
      make
        Gen.(
          triple (int_range 0 6)
            (list_size (0 -- 8) (pair (int_range 1 40) (int_range 0 300)))
            (pair (float_range 0.2 3.0) (float_range 0.0 1000.0))))
    (fun (space, raw, (tau, pollution)) ->
      let p = base_params ~alpha:1.5 ~tau ~tau_scale:10.0 () in
      let candidates =
        List.mapi
          (fun i (id, n) -> (Tag.make Tag_type.Network (id + (i * 100)), n))
          raw
      in
      let table = Hashtbl.create 8 in
      List.iter (fun (tag, n) -> Hashtbl.replace table tag n) candidates;
      let env =
        {
          Decision.count =
            (fun tag -> Option.value ~default:0 (Hashtbl.find_opt table tag));
          pollution;
        }
      in
      let verdicts f =
        List.map
          (fun r -> (r.Decision.tag, r.Decision.verdict))
          (f p env ~space (List.map fst candidates))
      in
      verdicts (Decision.alg2 ?ctx:None) = verdicts Decision.alg2_paper)

(* Alg. 2 as first written: Eq. (8) through [Cost.marginal] once per
   candidate to sort, and again per candidate in the greedy pass. The
   shipped pass computes each part of Eq. (8) once, so it is held to
   this reference bit for bit, marginals and verdicts, in all three
   variants. [recompute = false] is the no-line-9 ablation; [paper]
   stops at the first refusal. *)
let reference_alg2 ~recompute ~paper p env ~space candidates =
  let marginal pollution tag =
    Cost.marginal p (Tag.ty tag)
      ~n:(float_of_int (env.Decision.count tag))
      ~pollution
  in
  let initial =
    List.map (fun tag -> (tag, marginal env.Decision.pollution tag)) candidates
    |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
  in
  let pollution = ref env.Decision.pollution in
  let props = ref 0 in
  let broken = ref false in
  List.map
    (fun (tag, m0) ->
      let m = if recompute then marginal !pollution tag else m0 in
      if (not !broken) && !props < space && m <= 0.0 then begin
        incr props;
        pollution := !pollution +. Params.o p (Tag.ty tag);
        (tag, m, Decision.Propagate)
      end
      else begin
        if paper then broken := true;
        (tag, m, Decision.Block)
      end)
    initial

let reference_gen =
  QCheck.Gen.(
    let weights =
      list_repeat Tag_type.count (float_range 0.1 5.0)
      |> map (List.combine Tag_type.all)
    in
    let params =
      map
        (fun ((alpha, beta), (tau, tau_scale), (u, o)) ->
          base_params ~alpha ~beta ~tau ~tau_scale ~u ~o ())
        (triple
           (pair
              (oneof [ return 1.0; float_range 0.3 4.0 ])
              (oneof [ return 1.0; float_range 1.0 4.0 ]))
           (pair (oneof [ return 0.0; float_range 0.0 3.0 ]) (float_range 1.0 100.0))
           (pair weights weights))
    in
    (* half the batches a handful of candidates, as a decide request
       carries; half long enough for [Array.stable_sort] to merge *)
    let candidates =
      list_size (oneof [ 0 -- 8; 9 -- 40 ])
        (triple (oneofl Tag_type.all) (int_range 0 5)
           (oneof [ return 0; int_range 0 200 ]))
    in
    let pollution =
      oneof [ return 0.0; float_range (-500.0) 0.0; float_range 0.0 3000.0 ]
    in
    triple params candidates pollution >>= fun (p, raw, pollution) ->
    map (fun space -> (p, raw, pollution, space)) (0 -- (List.length raw + 1)))

let qcheck_alg2_equals_reference =
  QCheck.Test.make ~name:"alg2 variants = two-marginal reference (bit-exact)"
    ~count:1000
    QCheck.(make reference_gen)
    (fun (p, raw, pollution, space) ->
      let table = Hashtbl.create 8 in
      List.iter (fun (ty, id, n) -> Hashtbl.replace table (Tag.make ty id) n) raw;
      let env =
        {
          Decision.count =
            (fun tag -> Option.value ~default:0 (Hashtbl.find_opt table tag));
          pollution;
        }
      in
      let tags = List.map (fun (ty, id, _) -> Tag.make ty id) raw in
      let same got want =
        List.length got = List.length want
        && List.for_all2
          (fun (r : Decision.ranked) (tag, m, v) ->
            Tag.equal r.Decision.tag tag
            && Int64.equal
                 (Int64.bits_of_float r.Decision.marginal)
                 (Int64.bits_of_float m)
            && r.Decision.verdict = v)
          got want
      in
      (* a live context times and records the call but changes no
         bit of it, and the record carries the verdicts returned *)
      let audit = Mitos_obs.Audit.create () in
      let ctx =
        Decision.make_ctx ~obs:(Mitos_obs.Obs.create ()) ~audit ()
      in
      let plain = Decision.alg2 p env ~space tags in
      let traced = Decision.alg2 ~ctx p env ~space tags in
      let recorded =
        match Mitos_obs.Audit.records audit with
        | [| { body = Mitos_obs.Audit.Decision { tags; _ }; _ } |] ->
          List.map
            (fun (d : Mitos_obs.Audit.tag_decision) ->
              ( d.tag,
                Int64.bits_of_float d.marginal,
                d.verdict = Mitos_obs.Audit.Propagate ))
            tags
        | _ -> []
      in
      same plain
        (reference_alg2 ~recompute:true ~paper:false p env ~space tags)
      && same traced
           (List.map
              (fun (r : Decision.ranked) -> (r.tag, r.marginal, r.verdict))
              plain)
      && recorded
         = List.map
             (fun (r : Decision.ranked) ->
               ( Tag.to_string r.tag,
                 Int64.bits_of_float r.marginal,
                 r.verdict = Decision.Propagate ))
             plain
      && same
           (Decision.alg2_no_recompute p env ~space tags)
           (reference_alg2 ~recompute:false ~paper:false p env ~space tags)
      && same
           (Decision.alg2_paper p env ~space tags)
           (reference_alg2 ~recompute:true ~paper:true p env ~space tags))

(* Eq. (8) has one body: [Cost.marginal] is the under-submarginal plus
   [Cost.over_factor] times o_t, which [Decision] evaluates separately
   (g(P) once per batch, o_t per candidate). The split must not move a
   single bit, or alg2's verdicts could drift from [Cost.marginal]. *)
let qcheck_marginal_split_bit_exact =
  QCheck.Test.make ~name:"marginal = under + over_factor * o_t (bit-exact)"
    ~count:1000
    QCheck.(
      make
        Gen.(
          reference_gen >>= fun (p, _, pollution, _) ->
          map
            (fun (ty, n) -> (p, ty, n, pollution))
            (pair (oneofl Tag_type.all)
               (oneof [ return 0.0; float_range 0.0 200.0 ]))))
    (fun (p, ty, n, pollution) ->
      let bits = Int64.bits_of_float in
      let over = Cost.over_factor p pollution *. Params.o p ty in
      Int64.equal
        (bits (Cost.over_submarginal p ty ~pollution))
        (bits over)
      && Int64.equal
           (bits (Cost.marginal p ty ~n ~pollution))
           (bits (Cost.under_submarginal p ty ~n +. over)))

(* [Decision.add] reads [n ** -.alpha] from [Params]' table below
   1,024 and pays the pow above it. Either way the candidate's
   undertainting term must carry [Cost.under_submarginal]'s bits, for
   every count the table covers and thousands past it. Candidate [i]
   has id and count [i], so its term is found again after the sort. *)
let check_under_table p =
  let bits = Int64.bits_of_float in
  let counts = 5_096 in
  let s = Decision.scratch () in
  for i = 0 to counts - 1 do
    Decision.add s p (Tag.make (Tag_type.of_int (i mod Tag_type.count)) i)
      ~count:i
  done;
  Decision.decide Decision.no_ctx p ~recompute:true ~pollution:0.0 ~space:0 s;
  let seen = Array.make counts false in
  let ok = ref true in
  for k = 0 to Decision.length s - 1 do
    let tag = Decision.nth_tag s k in
    let n = float_of_int (Tag.id tag) in
    seen.(Tag.id tag) <- true;
    if
      not
        (Int64.equal
           (bits (Decision.nth_under s k))
           (bits (Cost.under_submarginal p (Tag.ty tag) ~n)))
    then ok := false
  done;
  !ok && Array.for_all Fun.id seen

let table_weights =
  [ (Tag_type.Network, 0.7); (Tag_type.File, 3.0); (Tag_type.Sensor, 1.25) ]

let test_under_table_bits () =
  List.iter
    (fun alpha ->
      let made = base_params ~alpha ~u:table_weights () in
      let rebuilt = Params.with_alpha (base_params ~u:table_weights ()) alpha in
      Alcotest.(check bool)
        (Printf.sprintf "alpha %g, made" alpha)
        true (check_under_table made);
      Alcotest.(check bool)
        (Printf.sprintf "alpha %g, with_alpha" alpha)
        true (check_under_table rebuilt))
    [ 0.5; 1.0; 1.5; 2.0; 4.0 ]

let qcheck_under_table_bits =
  QCheck.Test.make ~name:"table under term = under_submarginal, random alpha"
    ~count:30
    QCheck.(float_range 0.01 8.0)
    (fun alpha -> check_under_table (base_params ~alpha ~u:table_weights ()))

(* The table is made once per alpha: setters that keep alpha share it. *)
let test_params_table_shared () =
  let p = base_params () in
  let same q = q.Params.pow_neg_alpha == p.Params.pow_neg_alpha in
  Alcotest.(check bool) "with_tau shares" true (same (Params.with_tau p 0.3));
  Alcotest.(check bool) "with_beta shares" true (same (Params.with_beta p 3.0));
  Alcotest.(check bool) "with_u shares" true
    (same (Params.with_u p Tag_type.File 2.0));
  Alcotest.(check bool) "with_alpha replaces" false
    (same (Params.with_alpha p 2.0));
  Alcotest.(check (float 0.0)) "over_scale follows tau" (0.3 *. 1.0 *. 2.0)
    (Params.with_tau p 0.3).Params.over_scale

(* g(P) as [Cost.over_factor] wrote it before β = 2 skipped the pow *)
let over_factor_pow p pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  p.Params.tau *. p.Params.tau_scale *. p.Params.beta
  *. ((Float.max 0.0 pollution /. n_r) ** (p.Params.beta -. 1.0))

(* A non-negative double from uniform bits: every exponent is as
   likely as any other, so subnormals and huge values are common. NaN
   patterns are drawn again. *)
let rec random_nonneg rng =
  let x =
    Int64.float_of_bits
      (Int64.logand (Random.State.bits64 rng) 0x7fff_ffff_ffff_ffffL)
  in
  if Float.is_nan x then random_nonneg rng else x

let over_factor_agrees p rng ~samples =
  let bits = Int64.bits_of_float in
  let agree x =
    Int64.equal (bits (Cost.over_factor p x)) (bits (over_factor_pow p x))
  in
  let fixed =
    [ 0.0; -0.0; -1.0; Float.min_float; 4.9e-324; 2.2e-308; 1.0; 1e300;
      Float.max_float; infinity ]
  in
  let ok = ref (List.for_all agree fixed) in
  for _ = 1 to samples do
    if not (agree (random_nonneg rng)) then ok := false
  done;
  !ok

(* At β = 2, [over_factor] skips the pow ([pow x 1.0] is [x]); at any
   other β it must still take it. *)
let test_over_factor_beta2_bits () =
  let rng = Random.State.make [| 2 |] in
  List.iter
    (fun (total_tag_space, tau, tau_scale) ->
      let p =
        Params.make ~beta:2.0 ~tau ~tau_scale ~total_tag_space
          ~mem_capacity:1 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "beta 2, N_R %d" total_tag_space)
        true
        (over_factor_agrees p rng ~samples:500_000))
    [ (1, 0.7, 3.0); (10_000, 1.0, 1e4) ];
  List.iter
    (fun beta ->
      Alcotest.(check bool)
        (Printf.sprintf "beta %g" beta)
        true
        (over_factor_agrees (base_params ~beta ~tau:0.7 ()) rng
           ~samples:20_000))
    [ 1.0; 1.5; 2.5; 3.0; 4.0 ]

(* -- Analysis ----------------------------------------------------------------------- *)

let test_analysis_crossover_consistency () =
  (* alg1 must flip exactly at the closed-form threshold *)
  let p = base_params ~alpha:1.5 ~tau:1.0 () in
  let pollution = 250.0 in
  let nstar = Analysis.crossover_count p Tag_type.Network ~pollution in
  Alcotest.(check bool) "finite threshold" true (Float.is_finite nstar);
  let env_at n = env_of [ (net 1, n) ] pollution in
  let below = int_of_float (Float.floor nstar) in
  let above = int_of_float (Float.ceil nstar) + 1 in
  Alcotest.(check bool) "below threshold propagates" true
    (Decision.alg1 p (env_at below) (net 1) = Decision.Propagate);
  Alcotest.(check bool) "above threshold blocks" true
    (Decision.alg1 p (env_at above) (net 1) = Decision.Block)

let test_analysis_inverses () =
  let p = base_params ~alpha:1.5 ~beta:2.0 ~tau:0.7 () in
  let pollution = 400.0 and ty = Tag_type.File in
  let nstar = Analysis.crossover_count p ty ~pollution in
  Alcotest.(check (float 1e-6)) "pollution inverse" pollution
    (Analysis.pollution_ceiling p ty ~n:nstar);
  Alcotest.(check (float 1e-9)) "tau inverse" p.Params.tau
    (Analysis.tau_for_threshold p ty ~n:nstar ~pollution);
  Alcotest.(check (float 1e-9)) "u inverse" (Params.u p ty)
    (Analysis.u_for_threshold p ty ~n:nstar ~pollution)

let test_analysis_edges () =
  let p = base_params ~tau:0.0 () in
  Alcotest.(check bool) "tau=0: infinite threshold" true
    (Analysis.crossover_count p Tag_type.Network ~pollution:500.0 = infinity);
  let p = base_params ~tau:1.0 () in
  Alcotest.(check bool) "P=0: infinite threshold" true
    (Analysis.crossover_count p Tag_type.Network ~pollution:0.0 = infinity);
  Alcotest.(check bool) "n<=0 ceiling infinite" true
    (Analysis.pollution_ceiling p Tag_type.Network ~n:0.0 = infinity);
  Alcotest.(check int) "describe covers every type" Tag_type.count
    (List.length (Analysis.describe p ~pollution:100.0))

let test_analysis_monotone_in_u () =
  let p = base_params () in
  let boosted = Params.with_u p Tag_type.Network 50.0 in
  Alcotest.(check bool) "u boost raises the threshold" true
    (Analysis.crossover_count boosted Tag_type.Network ~pollution:300.0
    > Analysis.crossover_count p Tag_type.Network ~pollution:300.0)

(* -- Adaptive ----------------------------------------------------------------------- *)

let test_adaptive_raises_tau_on_overshoot () =
  let p = base_params ~tau:1.0 () in
  (* target fraction 1e-3 of N_R=10000 -> 10 copies *)
  let a = Adaptive.create ~target_pollution:1e-3 p in
  let tau0 = Adaptive.tau a in
  Adaptive.observe a ~pollution:100.0 (* fraction 1e-2, 10x over *);
  Alcotest.(check bool) "tau rises" true (Adaptive.tau a > tau0);
  Alcotest.(check int) "observation counted" 1 (Adaptive.observations a)

let test_adaptive_lowers_tau_on_headroom () =
  let p = base_params ~tau:1.0 () in
  let a = Adaptive.create ~target_pollution:1e-2 p in
  Adaptive.observe a ~pollution:1.0 (* far under budget *);
  Alcotest.(check bool) "tau falls" true (Adaptive.tau a < 1.0)

let test_adaptive_clamps () =
  let p = base_params ~tau:1.0 () in
  let a = Adaptive.create ~gain:100.0 ~min_tau:0.5 ~max_tau:2.0
      ~target_pollution:1e-3 p
  in
  Adaptive.observe a ~pollution:1e6;
  Alcotest.(check (float 1e-9)) "clamped above" 2.0 (Adaptive.tau a);
  Adaptive.observe a ~pollution:0.0;
  Adaptive.observe a ~pollution:0.0;
  Adaptive.observe a ~pollution:0.0;
  Alcotest.(check (float 1e-9)) "clamped below" 0.5 (Adaptive.tau a)

let test_adaptive_converges_roughly () =
  (* with a constant observed pollution, tau settles at a boundary or
     at equilibrium without oscillating off to the clamps *)
  let p = base_params ~tau:1.0 () in
  let a = Adaptive.create ~gain:0.2 ~target_pollution:1e-3 p in
  for _ = 1 to 200 do
    Adaptive.observe a ~pollution:10.0 (* exactly the target *)
  done;
  Alcotest.(check (float 1e-6)) "stays put at target" 1.0 (Adaptive.tau a)

let test_adaptive_validation () =
  let p = base_params () in
  Alcotest.(check bool) "bad target" true
    (try ignore (Adaptive.create ~target_pollution:0.0 p); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad clamp" true
    (try ignore (Adaptive.create ~min_tau:2.0 ~max_tau:1.0
                   ~target_pollution:1e-3 p);
       false
     with Invalid_argument _ -> true)

(* -- Fairness ----------------------------------------------------------------------- *)

let test_fairness_reports () =
  let r = Fairness.of_counts [| 4.0; 4.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mse equal" 0.0 r.Fairness.mse;
  Alcotest.(check (float 1e-9)) "jain equal" 1.0 r.Fairness.jain;
  Alcotest.(check int) "distinct" 3 r.Fairness.distinct;
  Alcotest.(check int) "total" 12 r.Fairness.total_copies;
  Alcotest.(check int) "max" 4 r.Fairness.max_copies

let test_fairness_improvement () =
  let unbalanced = Fairness.of_counts [| 1.0; 9.0 |] in
  let balanced = Fairness.of_counts [| 5.0; 6.0 |] in
  Alcotest.(check bool) "improvement > 1" true
    (Fairness.improvement ~baseline:unbalanced balanced > 1.0);
  let zero = Fairness.of_counts [| 3.0; 3.0 |] in
  Alcotest.(check (float 0.0)) "both zero -> 1" 1.0
    (Fairness.improvement ~baseline:zero zero);
  Alcotest.(check bool) "to zero -> infinite" true
    (Fairness.improvement ~baseline:unbalanced zero = infinity)

let test_fairness_of_stats () =
  let stats = Tag_stats.create () in
  for _ = 1 to 3 do Tag_stats.incr stats (net 1) done;
  Tag_stats.incr stats (file 1);
  let r = Fairness.of_stats stats in
  Alcotest.(check (float 1e-9)) "mse" 4.0 r.Fairness.mse;
  let rn = Fairness.of_stats_type stats Tag_type.Network in
  Alcotest.(check int) "per-type restriction" 1 rn.Fairness.distinct

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mitos_core"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "with_*" `Quick test_params_with;
        ] );
      ( "cost",
        [
          Alcotest.test_case "phi values" `Quick test_phi_values;
          Alcotest.test_case "over cost" `Quick test_over_cost;
          Alcotest.test_case "submarginals (Eq. 8)" `Quick test_submarginals;
          Alcotest.test_case "weights" `Quick test_weights_in_marginal;
          Alcotest.test_case "totals" `Quick test_under_total_matches_manual;
          q qcheck_phi_decreasing;
          q qcheck_phi_convex;
          q qcheck_over_submarginal_increasing;
        ] );
      ( "decision",
        [
          Alcotest.test_case "first copy" `Quick test_alg1_first_copy_always_propagates;
          Alcotest.test_case "tau=0" `Quick test_alg1_tau_zero_always_propagates;
          Alcotest.test_case "blocks overpropagated" `Quick test_alg1_blocks_overpropagated;
          Alcotest.test_case "alg2 space" `Quick test_alg2_respects_space;
          Alcotest.test_case "alg2 ordering" `Quick test_alg2_ordering;
          Alcotest.test_case "alg2 recompute" `Quick test_alg2_pollution_recompute_blocks_later;
          Alcotest.test_case "alg2 degenerate" `Quick test_alg2_empty_and_negative_space;
          Alcotest.test_case "alg2 acceptance criterion" `Quick test_alg2_accepted_have_nonpositive_marginal;
          Alcotest.test_case "alg2 literal = scanning (homogeneous)" `Quick
            test_alg2_paper_matches_homogeneous;
          Alcotest.test_case "alg2 literal early break" `Quick
            test_alg2_paper_early_break;
          q qcheck_alg2_paper_equals_scanning_homogeneous;
          q qcheck_alg2_equals_reference;
          Alcotest.test_case "of_stats" `Quick test_of_stats_env;
        ] );
      ( "marginals",
        [
          q qcheck_marginal_split_bit_exact;
          Alcotest.test_case "table under term (bit-exact)" `Quick
            test_under_table_bits;
          q qcheck_under_table_bits;
          Alcotest.test_case "table shared across setters" `Quick
            test_params_table_shared;
          Alcotest.test_case "over_factor beta 2 (bit-exact)" `Quick
            test_over_factor_beta2_bits;
        ] );
      ( "solver",
        [
          Alcotest.test_case "kkt constraints" `Quick test_solver_kkt_constraints;
          Alcotest.test_case "kkt stationarity" `Quick test_solver_kkt_stationarity;
          Alcotest.test_case "weights shift allocation" `Quick test_solver_kkt_weights_shift_allocation;
          Alcotest.test_case "gradient matches kkt" `Slow test_solver_gradient_matches_kkt;
          Alcotest.test_case "greedy near kkt" `Quick test_solver_greedy_near_kkt;
          Alcotest.test_case "brute force" `Quick test_solver_brute_force;
          Alcotest.test_case "budget binds" `Quick test_solver_budget_binds;
          Alcotest.test_case "B&B matches brute force" `Quick
            test_branch_and_bound_matches_brute_force;
          Alcotest.test_case "B&B node limit" `Quick
            test_branch_and_bound_node_limit;
          q qcheck_branch_and_bound_exact;
          q qcheck_kkt_feasible;
          q qcheck_greedy_never_beats_kkt;
          q qcheck_alg2_respects_space_and_order;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "crossover consistent with alg1" `Quick
            test_analysis_crossover_consistency;
          Alcotest.test_case "inverses" `Quick test_analysis_inverses;
          Alcotest.test_case "edges" `Quick test_analysis_edges;
          Alcotest.test_case "monotone in u" `Quick test_analysis_monotone_in_u;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "raises tau on overshoot" `Quick
            test_adaptive_raises_tau_on_overshoot;
          Alcotest.test_case "lowers tau on headroom" `Quick
            test_adaptive_lowers_tau_on_headroom;
          Alcotest.test_case "clamps" `Quick test_adaptive_clamps;
          Alcotest.test_case "stable at target" `Quick
            test_adaptive_converges_roughly;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "reports" `Quick test_fairness_reports;
          Alcotest.test_case "improvement" `Quick test_fairness_improvement;
          Alcotest.test_case "of_stats" `Quick test_fairness_of_stats;
        ] );
    ]
