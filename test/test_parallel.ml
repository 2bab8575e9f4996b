(* The domain pool: ordering, determinism, failure propagation, and
   the byte-identical-report guarantee the experiment layer relies
   on. *)

module Pool = Mitos_parallel.Pool
module E = Mitos_experiments

let check = Alcotest.check
let checki = check Alcotest.int
let checkil = check (Alcotest.list Alcotest.int)

(* -- scheduling ------------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 (fun i -> i) in
      checkil "input order" (List.map (fun x -> x * x) xs)
        (Pool.map pool ~f:(fun x -> x * x) xs))

let test_map_empty_and_singleton () =
  Pool.with_pool ~jobs:3 (fun pool ->
      checkil "empty" [] (Pool.map pool ~f:(fun x -> x) []);
      checkil "singleton" [ 7 ] (Pool.map pool ~f:(fun x -> x + 6) [ 1 ]))

let test_jobs_one_inline () =
  (* jobs=1 must not spawn domains: tasks run in the calling domain,
     so domain-local state is visible across tasks *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let acc = ref 0 in
      ignore (Pool.map pool ~f:(fun x -> acc := !acc + x) [ 1; 2; 3; 4 ]);
      checki "inline effects" 10 !acc)

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Pool.map pool
           ~f:(fun x -> if x = 13 then failwith "boom" else x)
           (List.init 40 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg);
      (* the pool survives a failed batch *)
      checkil "pool still usable" [ 2; 4 ]
        (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2 ]))

let test_nested_map_inline () =
  (* a task that maps on its own pool must not deadlock: the inner
     batch runs inline *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let rows =
        Pool.map pool
          ~f:(fun i -> Pool.map pool ~f:(fun j -> (10 * i) + j) [ 1; 2; 3 ])
          [ 1; 2; 3; 4 ]
      in
      check
        (Alcotest.list (Alcotest.list Alcotest.int))
        "nested result"
        [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]
        rows)

let test_shutdown_idempotent () =
  (* jobs=1 runs inline but must refuse after shutdown all the same *)
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      checkil "works" [ 1; 2; 3 ] (Pool.map pool ~f:(fun x -> x) [ 1; 2; 3 ]);
      Pool.shutdown pool;
      Pool.shutdown pool;
      match Pool.map pool ~f:(fun x -> x) [ 1 ] with
      | _ ->
        Alcotest.failf "jobs=%d: expected Invalid_argument after shutdown" jobs
      | exception Invalid_argument _ -> ())
    [ 1; 3 ]

let test_map_opt () =
  checkil "None = List.map" [ 2; 4 ]
    (Pool.map_opt None ~f:(fun x -> 2 * x) [ 1; 2 ]);
  Pool.with_pool ~jobs:2 (fun pool ->
      checkil "Some pool = map" [ 2; 4 ]
        (Pool.map_opt (Some pool) ~f:(fun x -> 2 * x) [ 1; 2 ]))

let test_many_small_batches () =
  (* stress the batch handoff: many consecutive submissions must not
     wedge a worker on a stale epoch *)
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 200 do
        let n = 1 + (round mod 7) in
        let xs = List.init n (fun i -> i) in
        checkil
          (Printf.sprintf "round %d" round)
          (List.map (fun x -> x + round) xs)
          (Pool.map pool ~f:(fun x -> x + round) xs)
      done)

let test_concurrent_submitters () =
  (* the pool is shared between client domains: their batches
     serialize, and each caller gets its own results in input order *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let client d =
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 1 to 100 do
              let xs = List.init (1 + ((round + d) mod 9)) (fun i -> i) in
              let expect = List.map (fun x -> (1000 * d) + x + round) xs in
              if Pool.map pool ~f:(fun x -> (1000 * d) + x + round) xs
                 <> expect
              then ok := false
            done;
            !ok)
      in
      let clients = List.map client [ 1; 2 ] in
      List.iteri
        (fun i c ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d results in input order" (i + 1))
            true (Domain.join c))
        clients)

(* -- executor --------------------------------------------------------- *)

module Executor = Mitos_parallel.Executor

(* wait until [cond] holds or a generous deadline passes; the executor
   gives no completion callback, so tests poll a counter *)
let await ?(timeout_s = 10.0) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Domain.cpu_relax ()
  done;
  cond ()

let test_executor_drains () =
  (* shutdown drains the queue before it joins the workers *)
  let ex = Executor.create ~name:"test-drain" ~workers:3 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    Executor.submit ex (fun () -> Atomic.incr hits)
  done;
  Executor.shutdown ex;
  checki "all tasks ran before join" 100 (Atomic.get hits);
  checki "nothing pending" 0 (Executor.pending ex);
  checki "no failures" 0 (Executor.failures ex);
  Executor.shutdown ex (* idempotent *)

let test_executor_inline () =
  (* workers=0 runs every task inline in the caller *)
  let ex = Executor.create ~name:"test-inline" ~workers:0 () in
  let acc = ref 0 in
  Executor.submit ex (fun () -> acc := !acc + 1);
  Executor.submit ex (fun () -> acc := !acc + 10);
  checki "inline effects immediate" 11 !acc;
  Executor.submit ex (fun () -> failwith "boom");
  checki "failure contained and counted" 1 (Executor.failures ex);
  Executor.shutdown ex;
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Executor.submit ex (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_executor_blocked_task_no_shadow () =
  (* a worker held by a long-lived task must not hold up work behind
     it while a sibling is idle *)
  let ex = Executor.create ~name:"test-blocked" ~workers:2 () in
  let release = Atomic.make false and started = Atomic.make false in
  (* let both workers reach their idle wait first *)
  Unix.sleepf 0.05;
  Executor.submit ex (fun () ->
      Atomic.set started true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done);
  Alcotest.(check bool) "blocker started" true
    (await (fun () -> Atomic.get started));
  (* one at a time, so each task lands while the only other worker
     is the held one *)
  let hits = Atomic.make 0 in
  let rec go i =
    i > 50
    || begin
      Executor.submit ex (fun () -> Atomic.incr hits);
      await (fun () -> Atomic.get hits = i) && go (i + 1)
    end
  in
  let all_ran = go 1 in
  let still_blocked = not (Atomic.get release) in
  Atomic.set release true;
  Alcotest.(check bool) "50 tasks ran beside the blocked one" true all_ran;
  Alcotest.(check bool) "blocker still held" true still_blocked;
  Executor.shutdown ex

let test_executor_failures_counted () =
  let ex = Executor.create ~name:"test-fail" ~workers:2 () in
  let ok = Atomic.make 0 in
  Executor.submit ex (fun () -> failwith "boom");
  Executor.submit ex (fun () -> Atomic.incr ok);
  Executor.submit ex (fun () -> failwith "boom again");
  Executor.submit ex (fun () -> Atomic.incr ok);
  Alcotest.(check bool) "survivors ran" true
    (await (fun () -> Atomic.get ok = 2 && Executor.failures ex = 2));
  checki "failures counted" 2 (Executor.failures ex);
  Executor.shutdown ex

let test_executor_concurrent_submit_stress () =
  (* several domains submitting while workers drain: every task must
     run exactly once *)
  let ex = Executor.create ~name:"test-stress" ~workers:3 () in
  let hits = Atomic.make 0 in
  let per_domain = 2_000 in
  let submitters =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Executor.submit ex (fun () -> Atomic.incr hits)
            done))
  in
  List.iter Domain.join submitters;
  Alcotest.(check bool) "no lost or duplicated tasks" true
    (await (fun () -> Atomic.get hits = 4 * per_domain));
  checki "exact count" (4 * per_domain) (Atomic.get hits);
  Executor.shutdown ex

(* -- the report determinism contract ---------------------------------- *)

let markdown_of sections =
  String.concat "" (List.map E.Report.to_markdown sections)

let test_matrix_report_identical () =
  let workloads = [ "crypto"; "netbench" ] in
  let seq = markdown_of [ E.Matrix.run ~workloads () ] in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool ->
            markdown_of [ E.Matrix.run ~workloads ~pool () ])
      in
      check Alcotest.string
        (Printf.sprintf "matrix report at jobs=%d" jobs)
        seq par)
    [ 1; 2; 4 ]

let test_validation_report_identical () =
  let seq = markdown_of [ E.Validation.run () ] in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool ->
            markdown_of [ E.Validation.run ~pool () ])
      in
      check Alcotest.string
        (Printf.sprintf "validation report at jobs=%d" jobs)
        seq par)
    [ 1; 2; 4 ]

let test_fig3_report_identical () =
  let seq = markdown_of [ E.Fig3.run () ] in
  let par =
    Pool.with_pool ~jobs:3 (fun pool -> markdown_of [ E.Fig3.run ~pool () ])
  in
  check Alcotest.string "fig3 report" seq par

let () =
  Alcotest.run "mitos_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_inline;
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested map runs inline" `Quick
            test_nested_map_inline;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "map_opt" `Quick test_map_opt;
          Alcotest.test_case "many small batches" `Quick
            test_many_small_batches;
          Alcotest.test_case "concurrent submitters" `Quick
            test_concurrent_submitters;
        ] );
      ( "executor",
        [
          Alcotest.test_case "drains to empty" `Quick test_executor_drains;
          Alcotest.test_case "workers=0 runs inline" `Quick
            test_executor_inline;
          Alcotest.test_case "blocked task shadows no sibling" `Quick
            test_executor_blocked_task_no_shadow;
          Alcotest.test_case "failures counted" `Quick
            test_executor_failures_counted;
          Alcotest.test_case "concurrent submit stress" `Quick
            test_executor_concurrent_submit_stress;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "matrix report identical at jobs 1/2/4" `Slow
            test_matrix_report_identical;
          Alcotest.test_case "validation report identical at jobs 1/2/4"
            `Quick test_validation_report_identical;
          Alcotest.test_case "fig3 report identical" `Quick
            test_fig3_report_identical;
        ] );
    ]
