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
      checki "jobs" 1 (Pool.jobs pool);
      let acc = ref 0 in
      Pool.iter pool ~f:(fun x -> acc := !acc + x) [ 1; 2; 3; 4 ];
      checki "inline effects" 10 !acc)

let test_mapi_and_map_array () =
  Pool.with_pool ~jobs:4 (fun pool ->
      checkil "mapi" [ 0; 2; 4; 6 ]
        (Pool.mapi pool ~f:(fun i x -> i + x) [ 0; 1; 2; 3 ]);
      check
        (Alcotest.array Alcotest.int)
        "map_array"
        [| 1; 4; 9; 16 |]
        (Pool.map_array pool ~f:(fun x -> x * x) [| 1; 2; 3; 4 |]))

let test_map_reduce_order () =
  (* non-commutative combine: string concat must come out in input
     order regardless of scheduling *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 50 (fun i -> i) in
      let expect =
        List.fold_left ( ^ ) "" (List.map string_of_int xs)
      in
      check Alcotest.string "left fold in input order" expect
        (Pool.map_reduce pool ~map:string_of_int ~combine:( ^ ) ~init:"" xs))

let test_map_seeded_jobs_invariant () =
  let xs = List.init 20 (fun i -> i) in
  let f ~rng x = (x, Mitos_util.Rng.int rng 1_000_000) in
  let at jobs =
    Pool.with_pool ~jobs (fun pool -> Pool.map_seeded pool ~seed:42 ~f xs)
  in
  let r1 = at 1 and r2 = at 2 and r4 = at 4 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "jobs=1 = jobs=2" r1 r2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "jobs=1 = jobs=4" r1 r4

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
  let pool = Pool.create ~jobs:3 () in
  checkil "works" [ 1; 2; 3 ] (Pool.map pool ~f:(fun x -> x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match Pool.map pool ~f:(fun x -> x) [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ())

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

(* -- sharded executor -------------------------------------------------- *)

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
  let ex = Executor.create ~name:"test-drain" ~workers:3 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    Executor.submit ex (fun () -> Atomic.incr hits)
  done;
  Alcotest.(check bool) "all tasks ran" true
    (await (fun () -> Atomic.get hits = 100));
  (* pending counts running work too, so the last task's slot clears a
     beat after its effect is visible *)
  Alcotest.(check bool) "nothing pending" true
    (await (fun () -> Executor.pending ex = 0));
  checki "no failures" 0 (Executor.failures ex);
  Executor.shutdown ex;
  Executor.shutdown ex (* idempotent *)

let test_executor_submit_to_routing () =
  let ex = Executor.create ~name:"test-route" ~workers:4 () in
  let hits = Atomic.make 0 in
  (* any shard index is accepted: in-range, beyond the worker count,
     and negative all reduce modulo the shard count *)
  List.iter
    (fun shard -> Executor.submit_to ex ~shard (fun () -> Atomic.incr hits))
    [ 0; 1; 2; 3; 4; 17; -1; -5 ];
  Alcotest.(check bool) "all routed tasks ran" true
    (await (fun () -> Atomic.get hits = 8));
  Executor.shutdown ex

let test_executor_inline () =
  (* workers=0 runs every task inline in the caller, including the
     shard-pinned form *)
  let ex = Executor.create ~name:"test-inline" ~workers:0 () in
  let acc = ref 0 in
  Executor.submit ex (fun () -> acc := !acc + 1);
  Executor.submit_to ex ~shard:5 (fun () -> acc := !acc + 10);
  checki "inline effects immediate" 11 !acc;
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
  (* several domains submitting (mixed routed/unrouted) while workers
     drain and steal: every task must run exactly once *)
  let ex = Executor.create ~name:"test-stress" ~workers:3 () in
  let hits = Atomic.make 0 in
  let per_domain = 2_000 in
  let submitters =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              if i land 1 = 0 then
                Executor.submit ex (fun () -> Atomic.incr hits)
              else
                Executor.submit_to ex ~shard:(d + i) (fun () ->
                    Atomic.incr hits)
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
          Alcotest.test_case "mapi / map_array" `Quick test_mapi_and_map_array;
          Alcotest.test_case "map_reduce folds in input order" `Quick
            test_map_reduce_order;
          Alcotest.test_case "map_seeded independent of jobs" `Quick
            test_map_seeded_jobs_invariant;
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested map runs inline" `Quick
            test_nested_map_inline;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "map_opt" `Quick test_map_opt;
          Alcotest.test_case "many small batches" `Quick
            test_many_small_batches;
        ] );
      ( "executor",
        [
          Alcotest.test_case "drains to empty" `Quick test_executor_drains;
          Alcotest.test_case "submit_to routes modulo shards" `Quick
            test_executor_submit_to_routing;
          Alcotest.test_case "workers=0 runs inline" `Quick
            test_executor_inline;
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
