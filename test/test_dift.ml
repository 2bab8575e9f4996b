open Mitos_isa
open Mitos_tag
open Mitos_dift

let net i = Tag.make Tag_type.Network i
let exp_tag i = Tag.make Tag_type.Export_table i

(* A tiny OS-free harness: syscall 1 writes 4 bytes at the address in
   r1 and tags them with network#<r2> (replace); syscall 2 marks 4
   bytes at r1 with export-table#1 (union, without writing); syscall 3
   is a sink on 4 bytes at r1. *)
let source_tag ~source =
  if source = 0 then Engine.Clear
  else if source < 100 then Engine.Taint (net source, `Replace)
  else Engine.Taint (exp_tag (source - 100), `Union)

let test_syscall m ~sysno =
  let a1 = Machine.get_reg m 1 and a2 = Machine.get_reg m 2 in
  match sysno with
  | 1 ->
    Machine.write_bytes m a1 (Bytes.make 4 'x');
    [ Machine.Sys_wrote_mem { addr = a1; len = 4; source = a2 } ]
  | 2 -> [ Machine.Sys_wrote_mem { addr = a1; len = 4; source = 100 + a2 } ]
  | 3 -> [ Machine.Sys_read_mem { addr = a1; len = 4; sink = 1 } ]
  | 9 -> [ Machine.Sys_wrote_mem { addr = a1; len = 4; source = 0 } ]
  | _ -> raise (Machine.Fault "unknown syscall")

let build_and_run ?(config = Engine.default_config) ~policy instrs =
  let prog = Program.make (Array.of_list instrs) in
  let machine = Machine.create ~mem_size:4096 ~syscall:test_syscall prog in
  let engine = Engine.create ~config ~policy ~source_tag prog in
  Engine.attach engine machine;
  ignore (Engine.run engine);
  engine

(* taint 4 bytes at 100 with network#1 *)
let taint_prologue =
  [ Instr.Li (1, 100); Instr.Li (2, 1); Instr.Syscall 1 ]

let tags_at engine addr = Shadow.tags_of_addr (Engine.shadow engine) addr

(* -- direct flows ------------------------------------------------------- *)

let test_direct_copy_chain () =
  (* load tainted byte -> store elsewhere: taint follows under faros *)
  let engine =
    build_and_run ~policy:Policies.faros
      (taint_prologue
      @ [
          Instr.Li (4, 100); Instr.Load (Instr.W8, 5, 4, 0);
          Instr.Li (6, 200); Instr.Store (Instr.W8, 5, 6, 0);
          Instr.Halt;
        ])
  in
  Alcotest.(check int) "source tainted" 1 (List.length (tags_at engine 100));
  Alcotest.(check bool) "copy carries tag" true
    (List.exists (Tag.equal (net 1)) (tags_at engine 200))

let test_untainted_overwrite_clears () =
  let engine =
    build_and_run ~policy:Policies.faros
      (taint_prologue
      @ [
          Instr.Li (5, 0); Instr.Li (6, 100);
          Instr.Store (Instr.W8, 5, 6, 0); (* clean store over tainted *)
          Instr.Halt;
        ])
  in
  Alcotest.(check (list string)) "cleared" []
    (List.map Tag.to_string (tags_at engine 100))

let test_compute_unions_tags () =
  (* two differently tainted bytes combined by add *)
  let engine =
    build_and_run ~policy:Policies.faros
      [
        Instr.Li (1, 100); Instr.Li (2, 1); Instr.Syscall 1;
        Instr.Li (1, 104); Instr.Li (2, 2); Instr.Syscall 1;
        Instr.Li (4, 100); Instr.Load (Instr.W8, 5, 4, 0);
        Instr.Li (4, 104); Instr.Load (Instr.W8, 6, 4, 0);
        Instr.Bin (Instr.Add, 7, 5, 6);
        Instr.Li (8, 300); Instr.Store (Instr.W8, 7, 8, 0);
        Instr.Halt;
      ]
  in
  let tags = tags_at engine 300 in
  Alcotest.(check int) "both tags combined" 2 (List.length tags);
  Alcotest.(check bool) "net1 and net2" true
    (List.exists (Tag.equal (net 1)) tags
    && List.exists (Tag.equal (net 2)) tags)

let test_compute_union_order () =
  (* a union keeps the first source's list, then each later source's
     new tags in that source's order *)
  let engine =
    build_and_run ~policy:Policies.faros
      [
        Instr.Li (1, 100); Instr.Li (2, 1); Instr.Syscall 1;
        Instr.Li (1, 104); Instr.Li (2, 2); Instr.Syscall 1;
        Instr.Li (1, 108); Instr.Li (2, 3); Instr.Syscall 1;
        Instr.Li (4, 100); Instr.Load (Instr.W8, 5, 4, 0);
        Instr.Li (4, 104); Instr.Load (Instr.W8, 6, 4, 0);
        Instr.Li (4, 108); Instr.Load (Instr.W8, 9, 4, 0);
        Instr.Bin (Instr.Add, 7, 6, 5);
        Instr.Bin (Instr.Add, 10, 9, 7);
        Instr.Bin (Instr.Add, 11, 7, 9);
        Instr.Bin (Instr.Add, 12, 7, 5);
        Instr.Halt;
      ]
  in
  let reg r = List.map Tag.id (Shadow.tags_of_reg (Engine.shadow engine) r) in
  Alcotest.(check (list int)) "two sources" [ 2; 1 ] (reg 7);
  Alcotest.(check (list int)) "two new tags keep their order" [ 3; 2; 1 ] (reg 10);
  Alcotest.(check (list int)) "one new tag appended" [ 2; 1; 3 ] (reg 11);
  Alcotest.(check (list int)) "a union that adds nothing" [ 2; 1 ] (reg 12)

(* -- address dependencies ------------------------------------------------ *)

let addr_dep_program =
  (* translate the tainted byte at 100 through an untainted table at 0 *)
  taint_prologue
  @ [
      Instr.Li (4, 100); Instr.Load (Instr.W8, 5, 4, 0);
      (* r5 holds tainted value 'x' = 0x78; table base 0 *)
      Instr.Load (Instr.W8, 6, 5, 0); (* addr dep: index tainted *)
      Instr.Li (7, 400); Instr.Store (Instr.W8, 6, 7, 0);
      Instr.Halt;
    ]

let test_addr_dep_faros_drops () =
  let engine = build_and_run ~policy:Policies.faros addr_dep_program in
  Alcotest.(check (list string)) "faros loses taint" []
    (List.map Tag.to_string (tags_at engine 400));
  let c = Engine.counters engine in
  Alcotest.(check bool) "ifp opportunities counted" true
    (c.Engine.ifp_blocked > 0);
  Alcotest.(check int) "nothing propagated" 0 c.Engine.ifp_propagated

let test_addr_dep_propagate_all_keeps () =
  let engine = build_and_run ~policy:Policies.propagate_all addr_dep_program in
  Alcotest.(check bool) "taint survives translation" true
    (List.exists (Tag.equal (net 1)) (tags_at engine 400))

let test_minos_width_heuristic () =
  (* byte access: minos propagates *)
  let engine = build_and_run ~policy:Policies.minos_width addr_dep_program in
  Alcotest.(check bool) "byte addr dep propagates" true
    (List.exists (Tag.equal (net 1)) (tags_at engine 400));
  (* word access: blocked *)
  let engine =
    build_and_run ~policy:Policies.minos_width
      (taint_prologue
      @ [
          Instr.Li (4, 100); Instr.Load (Instr.W32, 5, 4, 0);
          Instr.Bini (Instr.And, 5, 5, 0xFC);
          Instr.Load (Instr.W32, 6, 5, 0); (* word load, tainted address *)
          Instr.Li (7, 404); Instr.Store (Instr.W32, 6, 7, 0);
          Instr.Halt;
        ])
  in
  Alcotest.(check (list string)) "word addr dep blocked" []
    (List.map Tag.to_string (tags_at engine 404))

(* -- control dependencies ------------------------------------------------- *)

let ctrl_dep_program =
  (* branch on tainted byte; write inside the branch scope, then after
     the join *)
  taint_prologue
  @ [
      (* 3 *) Instr.Li (4, 100);
      (* 4 *) Instr.Load (Instr.W8, 5, 4, 0);
      (* 5 *) Instr.Li (6, 0);
      (* 6 *) Instr.Branch (Instr.Eq, 5, 6, 9);
      (* 7 *) Instr.Li (7, 1); (* inside scope *)
      (* 8 *) Instr.Jmp 9;
      (* 9: join *) Instr.Li (8, 2); (* after scope *)
      (* 10 *) Instr.Li (9, 500);
      (* 11 *) Instr.Store (Instr.W8, 7, 9, 0);
      (* 12 *) Instr.Store (Instr.W8, 8, 9, 1);
      (* 13 *) Instr.Halt;
    ]

let test_ctrl_dep_scope () =
  let engine = build_and_run ~policy:Policies.propagate_all ctrl_dep_program in
  (* r7 written at pc 7 inside scope of branch at 6 (ipdom = 9) *)
  Alcotest.(check bool) "write in scope tainted" true
    (List.exists (Tag.equal (net 1)) (tags_at engine 500));
  Alcotest.(check (list string)) "write after join untainted" []
    (List.map Tag.to_string (tags_at engine 501));
  Alcotest.(check bool) "scope was opened" true
    ((Engine.counters engine).Engine.ctrl_scopes_opened > 0)

let test_ctrl_dep_disabled () =
  let config = { Engine.default_config with track_ctrl = false } in
  let engine =
    build_and_run ~config ~policy:Policies.propagate_all ctrl_dep_program
  in
  Alcotest.(check (list string)) "no ctrl tracking" []
    (List.map Tag.to_string (tags_at engine 500));
  Alcotest.(check int) "no scopes" 0
    (Engine.counters engine).Engine.ctrl_scopes_opened

let test_untainted_branch_opens_no_scope () =
  let engine =
    build_and_run ~policy:Policies.propagate_all
      [
        Instr.Li (1, 0); Instr.Li (2, 0);
        Instr.Branch (Instr.Eq, 1, 2, 4);
        Instr.Nop; Instr.Li (3, 1); Instr.Halt;
      ]
  in
  Alcotest.(check int) "no scope for clean branch" 0
    (Engine.counters engine).Engine.ctrl_scopes_opened

let test_ijump_scope_expires () =
  let engine =
    build_and_run
      ~config:{ Engine.default_config with ijump_scope_len = 2 }
      ~policy:Policies.propagate_all
      (taint_prologue
      @ [
          (* 3 *) Instr.Li (4, 100);
          (* 4 *) Instr.Load (Instr.W8, 5, 4, 0);
          (* 5 *) Instr.Bini (Instr.And, 5, 5, 0);
          (* 6 *) Instr.Bini (Instr.Add, 5, 5, 8);
          (* r5 = 8, tainted *)
          (* 7 *) Instr.Jr 5;
          (* 8 *) Instr.Li (6, 1); (* within scope ttl *)
          (* 9 *) Instr.Li (7, 2); (* within scope ttl *)
          (* 10 *) Instr.Li (8, 3); (* beyond ttl *)
          (* 11 *) Instr.Li (9, 600);
          (* 12 *) Instr.Store (Instr.W8, 6, 9, 0);
          (* 13 *) Instr.Store (Instr.W8, 8, 9, 1);
          (* 14 *) Instr.Halt;
        ])
  in
  Alcotest.(check bool) "write just after tainted jr is tainted" true
    (List.exists (Tag.equal (net 1)) (tags_at engine 600));
  Alcotest.(check (list string)) "write beyond ttl is clean" []
    (List.map Tag.to_string (tags_at engine 601))

(* -- sources / sinks ------------------------------------------------------- *)

let test_source_union_and_detection () =
  let engine =
    build_and_run ~policy:Policies.faros
      (taint_prologue
      @ [ Instr.Li (1, 100); Instr.Li (2, 1); Instr.Syscall 2; Instr.Halt ])
  in
  let tags = tags_at engine 100 in
  Alcotest.(check int) "net + export" 2 (List.length tags);
  Alcotest.(check int) "detection query" 4
    (Metrics.detection_bytes (Engine.shadow engine))

let test_source_clear () =
  let engine =
    build_and_run ~policy:Policies.faros
      (taint_prologue
      @ [ Instr.Li (1, 100); Instr.Syscall 9; Instr.Halt ])
  in
  Alcotest.(check (list string)) "untainted source clears" []
    (List.map Tag.to_string (tags_at engine 100))

let test_sink_counts_tainted_bytes () =
  let engine =
    build_and_run ~policy:Policies.faros
      (taint_prologue
      @ [ Instr.Li (1, 100); Instr.Syscall 3; Instr.Li (1, 200);
          Instr.Syscall 3; Instr.Halt ])
  in
  Alcotest.(check int) "4 tainted bytes crossed the sink" 4
    (Engine.counters engine).Engine.sink_tainted_bytes

let test_confluence_alerts () =
  let prog =
    Program.make
      (Array.of_list
         (taint_prologue
         @ [ Instr.Li (1, 100); Instr.Li (2, 1); Instr.Syscall 2; Instr.Halt ]))
  in
  let machine = Machine.create ~mem_size:4096 ~syscall:test_syscall prog in
  let engine = Engine.create ~policy:Policies.faros ~source_tag prog in
  Engine.watch_confluence engine Tag_type.Network Tag_type.Export_table;
  Engine.attach engine machine;
  ignore (Engine.run engine);
  let alerts = Engine.alerts engine in
  Alcotest.(check int) "one alert per byte" 4 (List.length alerts);
  (match Engine.first_alert_step engine with
  | Some step ->
    (* the export mark happens at the Syscall 2 instruction: step 5 *)
    Alcotest.(check int) "detection step" 5 step
  | None -> Alcotest.fail "expected an alert");
  (match alerts with
  | a :: _ ->
    Alcotest.(check int) "alert address" 100 a.Engine.alert_addr
  | [] -> ());
  (* alerts deduplicate: no engine output change on re-query *)
  Alcotest.(check int) "stable" 4 (List.length (Engine.alerts engine))

let test_confluence_no_false_alert () =
  let engine =
    build_and_run ~policy:Policies.faros
      (taint_prologue @ [ Instr.Halt ])
  in
  Alcotest.(check (list string)) "no watch, no alerts" []
    (List.map
       (fun a -> string_of_int a.Engine.alert_addr)
       (Engine.alerts engine))

let test_sink_profile () =
  let engine =
    build_and_run ~policy:Policies.faros
      ([
         Instr.Li (1, 100); Instr.Li (2, 1); Instr.Syscall 1;
         Instr.Li (1, 104); Instr.Li (2, 2); Instr.Syscall 1;
       ]
      @ [ (* send 8 bytes spanning both taint regions through sink 1 *)
          Instr.Li (1, 100); Instr.Syscall 3;
          Instr.Li (1, 104); Instr.Syscall 3;
          Instr.Halt ])
  in
  match Engine.sink_profile engine with
  | [ (1, attribution) ] ->
    Alcotest.(check (list (pair string int))) "per-tag attribution"
      [ ("network#1", 4); ("network#2", 4) ]
      (List.map (fun (tag, n) -> (Tag.to_string tag, n)) attribution)
  | other ->
    Alcotest.failf "expected one sink, got %d" (List.length other)

let test_taint_map_rendering () =
  let shadow =
    Shadow.create ~mem_capacity:1024 ~num_regs:4 ~m_prov:4 ()
  in
  (* taint half of one 16-byte bucket fully, plus a detection byte *)
  for a = 0 to 15 do
    Shadow.set_addr_tags shadow a [ net 1 ]
  done;
  Shadow.set_addr_tags shadow 512 [ net 1 ];
  Shadow.union_into_addr shadow 512 [ exp_tag 1 ];
  let map =
    Taint_map.render ~width:16 ~bytes_per_cell:16
      ~highlight:(Tag_type.Network, Tag_type.Export_table)
      ~base:0 ~len:1024 shadow
  in
  let lines = String.split_on_char '\n' (String.trim map) in
  Alcotest.(check int) "4 rows of 16x16-byte buckets" 4 (List.length lines);
  Alcotest.(check bool) "full bucket renders #" true
    (String.contains (List.nth lines 0) '#');
  Alcotest.(check bool) "detection bucket renders !" true
    (String.contains (List.nth lines 2) '!');
  Alcotest.(check string) "empty map" ""
    (Taint_map.render ~base:0 ~len:0 shadow)

let test_taint_map_regions () =
  let shadow =
    Shadow.create ~mem_capacity:1024 ~num_regs:4 ~m_prov:4 ()
  in
  Shadow.set_addr_tags shadow 100 [ net 1 ];
  let out =
    Taint_map.render_regions
      [ ("dirty", 0, 256); ("clean", 256, 256) ]
      shadow
  in
  let has needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dirty region expanded" true (has "dirty");
  Alcotest.(check bool) "clean region summarized" true (has "clean [0x100..0x200): clean")

(* -- policies ---------------------------------------------------------------- *)

let req ~kind ~candidates ~space =
  {
    Policy.kind;
    candidates;
    space;
    width = 1;
    stats = Tag_stats.create ();
    step = 0;
    ctx = Mitos.Decision.no_ctx;
    scratch = Mitos.Decision.scratch ();
  }

let test_policy_basics () =
  let candidates = [ net 1; net 2 ] in
  Alcotest.(check int) "faros direct" 2
    (List.length
       (Policy.select Policies.faros
          (req ~kind:Policy.Direct_copy ~candidates ~space:4)));
  Alcotest.(check int) "faros indirect" 0
    (List.length
       (Policy.select Policies.faros (req ~kind:Policy.Addr ~candidates ~space:4)));
  Alcotest.(check int) "block_all" 0
    (List.length
       (Policy.select Policies.block_all
          (req ~kind:Policy.Direct_copy ~candidates ~space:4)));
  Alcotest.(check int) "propagate_all" 2
    (List.length
       (Policy.select Policies.propagate_all
          (req ~kind:Policy.Ctrl ~candidates ~space:4)))

let test_policy_probabilistic_extremes () =
  let candidates = [ net 1; net 2; net 3 ] in
  let p0 = Policies.probabilistic ~seed:1 ~p:0.0 in
  let p1 = Policies.probabilistic ~seed:1 ~p:1.0 in
  Alcotest.(check int) "p=0 blocks indirect" 0
    (List.length (Policy.select p0 (req ~kind:Policy.Addr ~candidates ~space:4)));
  Alcotest.(check int) "p=1 propagates" 3
    (List.length (Policy.select p1 (req ~kind:Policy.Addr ~candidates ~space:4)));
  Alcotest.(check int) "direct unaffected" 3
    (List.length (Policy.select p0 (req ~kind:Policy.Direct_copy ~candidates ~space:4)))

let test_policy_threshold () =
  let stats = Tag_stats.create () in
  for _ = 1 to 5 do Tag_stats.incr stats (net 1) done;
  let pol = Policies.pollution_threshold ~limit:3 in
  let request = { (req ~kind:Policy.Addr ~candidates:[ net 2 ] ~space:4) with stats } in
  Alcotest.(check int) "above limit blocks" 0
    (List.length (Policy.select pol request))

let test_policy_mitos_flags () =
  let params =
    Mitos.Params.make ~tau:0.0 ~total_tag_space:1000 ~mem_capacity:100 ()
  in
  let observations = ref 0 in
  let pol = Policies.mitos ~observe:(fun _ -> incr observations) params in
  let candidates = [ net 1; net 2 ] in
  Alcotest.(check int) "tau=0 propagates all indirect" 2
    (List.length (Policy.select pol (req ~kind:Policy.Addr ~candidates ~space:4)));
  Alcotest.(check int) "observer saw both" 2 !observations;
  (* direct flows bypass Alg. 2 unless handle_direct *)
  Alcotest.(check int) "direct bypass" 2
    (List.length
       (Policy.select pol (req ~kind:Policy.Direct_copy ~candidates ~space:4)));
  Alcotest.(check int) "observer not called for direct bypass" 2 !observations;
  let pol_all = Policies.mitos ~handle_direct:true params in
  Alcotest.(check int) "handle_direct routes direct" 2
    (List.length
       (Policy.select pol_all (req ~kind:Policy.Direct_copy ~candidates ~space:4)))

let test_confluence_boost_policy () =
  let params =
    Mitos.Params.make ~alpha:2.0 ~tau:1.0 ~tau_scale:1.0
      ~total_tag_space:10_000 ~mem_capacity:1_000 ()
  in
  let pol =
    Policies.with_confluence_boost ~factor:1000.0
      ~pairs:[ (Tag_type.Network, Tag_type.Export_table) ]
      params
  in
  (* heavy pollution: plain candidates get blocked *)
  let stats = Tag_stats.create () in
  (* boosted under-marginal 1000/10^2 = 10 beats the over-marginal
     (~0.8); unboosted 1/10^2 = 0.01 does not *)
  for _ = 1 to 10 do Tag_stats.incr stats (net 1) done;
  for _ = 1 to 10 do Tag_stats.incr stats (exp_tag 1) done;
  for _ = 1 to 4000 do Tag_stats.incr stats (net 9) done;
  let request candidates =
    { (req ~kind:Policy.Addr ~candidates ~space:8) with stats }
  in
  Alcotest.(check int) "lone netflow tag blocked" 0
    (List.length (Policy.select pol (request [ net 1 ])));
  Alcotest.(check int) "suspicious pair boosted through" 2
    (List.length (Policy.select pol (request [ net 1; exp_tag 1 ])));
  Alcotest.(check int) "direct flows unconditional" 1
    (List.length
       (Policy.select pol
          { (req ~kind:Policy.Direct_copy ~candidates:[ net 9 ] ~space:8) with
            stats }))

let test_litmus_profiles () =
  let conforms name ~direct ~addr ~ctrl policy =
    match Litmus.check ~direct ~addr ~ctrl policy with
    | [] -> ()
    | failures ->
      Alcotest.failf "%s: %d litmus mismatches (first: %s expected %b got %b)"
        name (List.length failures)
        (match failures with
        | (c, _, _) :: _ -> c.Litmus.case_name
        | [] -> "?")
        (match failures with (_, e, _) :: _ -> e | [] -> false)
        (match failures with (_, _, g) :: _ -> g | [] -> false)
  in
  conforms "faros" ~direct:true ~addr:false ~ctrl:false Policies.faros;
  conforms "propagate-all" ~direct:true ~addr:true ~ctrl:true
    Policies.propagate_all;
  conforms "block-all" ~direct:false ~addr:false ~ctrl:false Policies.block_all;
  conforms "minos (byte accesses)" ~direct:true ~addr:true ~ctrl:false
    Policies.minos_width;
  let tau0 =
    Policies.mitos
      (Mitos.Params.make ~tau:0.0 ~total_tag_space:1000 ~mem_capacity:100 ())
  in
  conforms "mitos tau=0" ~direct:true ~addr:true ~ctrl:true tau0

let test_litmus_detects_misdeclared_profile () =
  (* declaring that faros propagates address deps must fail *)
  Alcotest.(check bool) "mismatches reported" true
    (List.length (Litmus.check ~direct:true ~addr:true ~ctrl:false Policies.faros)
    > 0);
  Alcotest.(check int) "suite covers all cases"
    (List.length Litmus.cases)
    (List.length (Litmus.run Policies.faros))

(* The MITOS policy decides in the scratch its request carries; the
   list entry points decide in a scratch of their own. One scratch is
   reused across every batch of a run here, longer batches and shorter
   ones mixed, so an entry a batch left behind cannot leak into a later
   one unseen. Ids come from a small range, so batches hold duplicates;
   space runs past the batch size; weights differ per type, so the
   greedy pass's recomputation (line 9) moves the order. *)
let qcheck_policy_scratch_matches_alg2 =
  let batch =
    QCheck.Gen.(
      let* n = 0 -- 40 in
      let* candidates =
        list_repeat n
          (map2 (fun ty id -> Tag.make (Tag_type.of_int ty) id) (0 -- 2) (0 -- 15))
      in
      let* space = 0 -- (n + 1) in
      let* recompute = bool in
      let* tau = oneofl [ 0.0; 0.002; 0.02; 0.2; 2.0 ] in
      return (candidates, space, recompute, tau))
  in
  let counts = QCheck.Gen.(list_repeat 48 (0 -- 30)) in
  QCheck.Test.make ~name:"policy scratch = alg2_accepted" ~count:100
    QCheck.(make Gen.(pair counts (list_size (1 -- 12) batch)))
    (fun (counts, batches) ->
      let stats = Tag_stats.create () in
      List.iteri
        (fun i c ->
          let tag = Tag.make (Tag_type.of_int (i / 16)) (i mod 16) in
          for _ = 1 to c do Tag_stats.incr stats tag done)
        counts;
      let scratch = Mitos.Decision.scratch () in
      List.for_all
        (fun (candidates, space, recompute, tau) ->
          let params =
            Mitos.Params.make ~tau ~total_tag_space:4000 ~mem_capacity:100
              ~u:[ (Tag_type.File, 3.0) ]
              ~o:[ (Tag_type.File, 2.5); (Tag_type.Process, 0.5) ]
              ()
          in
          let request =
            { (req ~kind:Policy.Addr ~candidates ~space) with stats; scratch }
          in
          let got = Policy.select (Policies.mitos ~recompute params) request in
          let env = Mitos.Decision.of_stats params stats in
          let expected =
            if recompute then
              Mitos.Decision.alg2_accepted params env ~space candidates
            else
              Mitos.Decision.alg2_no_recompute params env ~space candidates
              |> List.filter_map (fun (r : Mitos.Decision.ranked) ->
                     match r.verdict with
                     | Mitos.Decision.Propagate -> Some r.tag
                     | Mitos.Decision.Block -> None)
          in
          List.equal Tag.equal got expected)
        batches)

(* -- replay equivalence ------------------------------------------------------- *)

let test_replay_equals_live () =
  let prog = Program.make (Array.of_list addr_dep_program) in
  let live_machine = Machine.create ~mem_size:4096 ~syscall:test_syscall prog in
  let live = Engine.create ~policy:Policies.propagate_all ~source_tag prog in
  Engine.attach live live_machine;
  ignore (Engine.run live);
  (* record the same program, then replay through a fresh engine *)
  let rec_machine = Machine.create ~mem_size:4096 ~syscall:test_syscall prog in
  let records = ref [] in
  ignore (Machine.run rec_machine (fun r -> records := r :: !records));
  let replayed = Engine.create ~policy:Policies.propagate_all ~source_tag prog in
  Engine.attach_shadow replayed ~mem_size:4096;
  List.iter (Engine.process_record replayed) (List.rev !records);
  let s1 = Metrics.of_engine live and s2 = Metrics.of_engine replayed in
  Alcotest.(check int) "same copies" s1.Metrics.total_copies s2.Metrics.total_copies;
  Alcotest.(check int) "same tainted" s1.Metrics.tainted_bytes s2.Metrics.tainted_bytes;
  Alcotest.(check int) "same ops" s1.Metrics.shadow_ops s2.Metrics.shadow_ops;
  Alcotest.(check int) "same ifp" s1.Metrics.ifp_propagated s2.Metrics.ifp_propagated

(* -- metrics ---------------------------------------------------------------------- *)

let test_metrics_summary () =
  let engine = build_and_run ~policy:Policies.propagate_all addr_dep_program in
  let s = Metrics.of_engine engine in
  Alcotest.(check string) "policy name" "propagate-all" s.Metrics.policy;
  Alcotest.(check bool) "steps counted" true (s.Metrics.steps > 0);
  Alcotest.(check (float 1e-9)) "all propagated" 1.0 (Metrics.propagation_rate s);
  Alcotest.(check int) "row arity matches header"
    (List.length Metrics.header)
    (List.length (Metrics.row s))

let test_counters_consistency () =
  let engine = build_and_run ~policy:Policies.propagate_all ctrl_dep_program in
  let c = Engine.counters engine in
  Alcotest.(check int) "per-type sums match totals"
    (c.Engine.ifp_propagated + c.Engine.ifp_blocked)
    (Array.fold_left ( + ) 0 c.Engine.per_type_propagated
    + Array.fold_left ( + ) 0 c.Engine.per_type_blocked)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mitos_dift"
    [
      ( "direct",
        [
          Alcotest.test_case "copy chain" `Quick test_direct_copy_chain;
          Alcotest.test_case "overwrite clears" `Quick test_untainted_overwrite_clears;
          Alcotest.test_case "compute unions" `Quick test_compute_unions_tags;
          Alcotest.test_case "compute union order" `Quick test_compute_union_order;
        ] );
      ( "addr-dep",
        [
          Alcotest.test_case "faros drops" `Quick test_addr_dep_faros_drops;
          Alcotest.test_case "propagate-all keeps" `Quick test_addr_dep_propagate_all_keeps;
          Alcotest.test_case "minos width" `Quick test_minos_width_heuristic;
        ] );
      ( "ctrl-dep",
        [
          Alcotest.test_case "scope" `Quick test_ctrl_dep_scope;
          Alcotest.test_case "disabled" `Quick test_ctrl_dep_disabled;
          Alcotest.test_case "clean branch" `Quick test_untainted_branch_opens_no_scope;
          Alcotest.test_case "ijump ttl" `Quick test_ijump_scope_expires;
        ] );
      ( "sources",
        [
          Alcotest.test_case "union + detection" `Quick test_source_union_and_detection;
          Alcotest.test_case "clear" `Quick test_source_clear;
          Alcotest.test_case "sink" `Quick test_sink_counts_tainted_bytes;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "confluence alerts" `Quick test_confluence_alerts;
          Alcotest.test_case "no false alerts" `Quick test_confluence_no_false_alert;
          Alcotest.test_case "sink profile" `Quick test_sink_profile;
          Alcotest.test_case "taint map" `Quick test_taint_map_rendering;
          Alcotest.test_case "taint map regions" `Quick test_taint_map_regions;
        ] );
      ( "policies",
        [
          Alcotest.test_case "basics" `Quick test_policy_basics;
          Alcotest.test_case "probabilistic" `Quick test_policy_probabilistic_extremes;
          Alcotest.test_case "threshold" `Quick test_policy_threshold;
          Alcotest.test_case "mitos flags" `Quick test_policy_mitos_flags;
          Alcotest.test_case "confluence boost" `Quick test_confluence_boost_policy;
          q qcheck_policy_scratch_matches_alg2;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "standard profiles conform" `Quick
            test_litmus_profiles;
          Alcotest.test_case "misdeclared profile caught" `Quick
            test_litmus_detects_misdeclared_profile;
        ] );
      ( "replay",
        [ Alcotest.test_case "replay equals live" `Quick test_replay_equals_live ] );
      ( "metrics",
        [
          Alcotest.test_case "summary" `Quick test_metrics_summary;
          Alcotest.test_case "counters consistency" `Quick test_counters_consistency;
        ] );
    ]
