(* Randomized integration testing of the whole DIFT stack.

   Programs are generated from safe templates (memory operands are
   masked into a 4 KiB window, branch targets are always valid, the
   program always terminates via a fuel counter), seeded with taint by
   a syscall prologue, and run under several policies. Checked on
   every run:

   - the machine and engine never crash;
   - the copy-count accounting is exact (recount equals Tag_stats);
   - tainted-byte sets are monotone across policies
     (faros subset of propagate-all);
   - record/replay of the same program is bit-identical in effect. *)

open Mitos_isa
open Mitos_tag
open Mitos_dift
module Rng = Mitos_util.Rng

let mem_mask = 0xFFF (* all accesses within [0, 4096) *)
let num_fuzz_programs = 60

(* syscall 1: taint 16 bytes at r1 with network#r2 *)
let source_tag ~source =
  if source = 0 then Engine.Clear
  else Engine.Taint (Tag.make Tag_type.Network source, `Replace)

let fuzz_syscall m ~sysno:_ =
  let addr = Machine.get_reg m 1 land mem_mask in
  let id = 1 + (Machine.get_reg m 2 land 7) in
  let addr = min addr (4096 - 16) in
  [ Machine.Sys_wrote_mem { addr; len = 16; source = id } ]

(* A random but safe instruction sequence. The fuel register r15
   bounds execution: every loop body decrements it and exits when it
   reaches zero. *)
let random_program rng =
  let cg = Mitos_workload.Codegen.create () in
  let a = Mitos_workload.Codegen.asm cg in
  let reg () = 4 + Rng.int rng 8 (* r4..r11; r12-r15 reserved *) in
  let mask_for_mem r =
    Asm.bini a Instr.And r r mem_mask;
    (* keep word accesses in bounds *)
    Asm.bini a Instr.And r r 0xFF8
  in
  (* taint prologue: a few source syscalls at random spots *)
  for _ = 1 to 1 + Rng.int rng 3 do
    Asm.li a 1 (Rng.int rng 4096);
    Asm.li a 2 (Rng.int rng 8);
    Asm.syscall a 1
  done;
  (* seed registers *)
  for r = 4 to 11 do
    Asm.li a r (Rng.int rng 4096)
  done;
  Asm.li a 15 (50 + Rng.int rng 200) (* fuel *);
  Asm.label a "top";
  let body_len = 3 + Rng.int rng 12 in
  for _ = 1 to body_len do
    match Rng.int rng 8 with
    | 0 ->
      let rd = reg () and rs = reg () in
      Asm.bin a
        (Rng.pick rng [| Instr.Add; Instr.Sub; Instr.Xor; Instr.And; Instr.Or |])
        rd rd rs
    | 1 -> Asm.bini a Instr.Add (reg ()) (reg ()) (Rng.int rng 64)
    | 2 ->
      let rb = reg () in
      mask_for_mem rb;
      Asm.loadb a (reg ()) rb 0
    | 3 ->
      let rb = reg () in
      mask_for_mem rb;
      Asm.storeb a (reg ()) rb 0
    | 4 ->
      let rb = reg () in
      mask_for_mem rb;
      Asm.emit a (Instr.Load (Instr.W32, reg (), rb, 0))
    | 5 ->
      let rb = reg () in
      mask_for_mem rb;
      Asm.emit a (Instr.Store (Instr.W32, reg (), rb, 0))
    | 6 ->
      (* a forward branch over one instruction: always well-formed *)
      let r1 = reg () and r2 = reg () in
      let skip = Mitos_workload.Codegen.fresh cg "skip" in
      Asm.branch a (Rng.pick rng [| Instr.Eq; Instr.Ltu; Instr.Ne |]) r1 r2 skip;
      Asm.bini a Instr.Xor (reg ()) (reg ()) 0x5A;
      Asm.label a skip
    | _ -> Asm.mov a (reg ()) (reg ())
  done;
  (* fuel loop back-edge *)
  Asm.bini a Instr.Sub 15 15 1;
  Asm.li a 14 0;
  Asm.branch a Instr.Ne 15 14 "top";
  Asm.halt a;
  Mitos_workload.Codegen.assemble cg

let machine_for prog = Machine.create ~mem_size:4096 ~syscall:fuzz_syscall prog

let run_policy prog policy =
  let engine = Engine.create ~policy ~source_tag prog in
  Engine.attach engine (machine_for prog);
  ignore (Engine.run ~max_steps:200_000 engine);
  engine

let recount_exact engine =
  let shadow = Engine.shadow engine in
  let recount = Tag_stats.create () in
  Shadow.iter_tainted shadow (fun _ tags -> List.iter (Tag_stats.incr recount) tags);
  for r = 0 to Shadow.num_regs shadow - 1 do
    List.iter (Tag_stats.incr recount) (Shadow.tags_of_reg shadow r)
  done;
  let stats = Engine.stats engine in
  Tag_stats.total recount = Tag_stats.total stats
  && Tag_stats.fold stats ~init:true ~f:(fun acc tag n ->
         acc && Tag_stats.count recount tag = n)

module ISet = Set.Make (Int)

let tainted_set engine =
  let acc = ref ISet.empty in
  Shadow.iter_tainted (Engine.shadow engine) (fun addr _ -> acc := ISet.add addr !acc);
  !acc

let test_fuzz_invariants () =
  let rng = Rng.create 20260704 in
  for i = 1 to num_fuzz_programs do
    let prog = random_program rng in
    let faros = run_policy prog Policies.faros in
    let all = run_policy prog Policies.propagate_all in
    let minos = run_policy prog Policies.minos_width in
    Alcotest.(check bool)
      (Printf.sprintf "program %d: faros counts exact" i)
      true (recount_exact faros);
    Alcotest.(check bool)
      (Printf.sprintf "program %d: propagate-all counts exact" i)
      true (recount_exact all);
    Alcotest.(check bool)
      (Printf.sprintf "program %d: minos counts exact" i)
      true (recount_exact minos);
    Alcotest.(check bool)
      (Printf.sprintf "program %d: faros subset of all" i)
      true
      (ISet.subset (tainted_set faros) (tainted_set all));
    Alcotest.(check bool)
      (Printf.sprintf "program %d: minos subset of all" i)
      true
      (ISet.subset (tainted_set minos) (tainted_set all))
  done

let test_fuzz_replay_determinism () =
  let rng = Rng.create 777 in
  for i = 1 to 15 do
    let prog = random_program rng in
    let record () =
      let m = machine_for prog in
      let records = ref [] in
      ignore (Machine.run ~max_steps:200_000 m (fun r -> records := r :: !records));
      List.rev !records
    in
    let r1 = record () and r2 = record () in
    Alcotest.(check bool)
      (Printf.sprintf "program %d: execution is deterministic" i)
      true (r1 = r2);
    (* replay through an engine matches the live engine *)
    let live = run_policy prog Policies.propagate_all in
    let replayed = Engine.create ~policy:Policies.propagate_all ~source_tag prog in
    Engine.attach_shadow replayed ~mem_size:4096;
    List.iter (Engine.process_record replayed) r1;
    Alcotest.(check int)
      (Printf.sprintf "program %d: replay = live (ops)" i)
      (Engine.counters live).Engine.shadow_ops
      (Engine.counters replayed).Engine.shadow_ops
  done

let test_fuzz_backends_and_checkpoints () =
  let rng = Rng.create 55001 in
  for i = 1 to 15 do
    let prog = random_program rng in
    let run backend =
      let config = { Engine.default_config with shadow_backend = backend } in
      let engine = Engine.create ~config ~policy:Policies.propagate_all ~source_tag prog in
      Engine.attach engine (machine_for prog);
      ignore (Engine.run ~max_steps:200_000 engine);
      engine
    in
    let hashed = run Shadow.Hashed and paged = run Shadow.Paged in
    Alcotest.(check int)
      (Printf.sprintf "program %d: backends agree on ops" i)
      (Engine.counters hashed).Engine.shadow_ops
      (Engine.counters paged).Engine.shadow_ops;
    Alcotest.(check bool)
      (Printf.sprintf "program %d: backends agree on state" i)
      true
      (Tag_stats.snapshot (Engine.stats hashed)
      = Tag_stats.snapshot (Engine.stats paged));
    (* checkpoint the final state and compare the restoration *)
    let restored = Shadow.of_string (Shadow.to_string (Engine.shadow hashed)) in
    Alcotest.(check bool)
      (Printf.sprintf "program %d: checkpoint faithful" i)
      true
      (Tag_stats.snapshot (Shadow.stats restored)
      = Tag_stats.snapshot (Engine.stats hashed))
  done

let test_fuzz_mitos_between_endpoints () =
  let params =
    Mitos.Params.make ~tau:0.5 ~tau_scale:100.0 ~total_tag_space:40_960
      ~mem_capacity:4_096 ()
  in
  let rng = Rng.create 31337 in
  for i = 1 to 20 do
    let prog = random_program rng in
    let faros = run_policy prog Policies.faros in
    let mitos = run_policy prog (Policies.mitos params) in
    let all = run_policy prog Policies.propagate_all in
    Alcotest.(check bool)
      (Printf.sprintf "program %d: mitos counts exact" i)
      true (recount_exact mitos);
    let f = ISet.cardinal (tainted_set faros)
    and m = ISet.cardinal (tainted_set mitos)
    and a = ISet.cardinal (tainted_set all) in
    Alcotest.(check bool)
      (Printf.sprintf "program %d: |faros| <= |mitos| <= |all| (%d/%d/%d)" i f m a)
      true
      (f <= m && m <= a)
  done

(* -- differential testing against an independent reference ------------- *)

(* A second, deliberately independent implementation of direct-flow
   taint tracking: it interprets execution records directly, with its
   own state representation (per-location tag sets), sharing no code
   with Extract/Shadow/Engine. Agreement on random programs is strong
   evidence both are right. *)
module Reference = struct
  module TSet = Set.Make (struct
    type t = Tag.t

    let compare = Tag.compare
  end)

  type t = { regs : TSet.t array; mem : (int, TSet.t) Hashtbl.t }

  let create () = { regs = Array.make 16 TSet.empty; mem = Hashtbl.create 64 }

  let mem_get t a =
    Option.value ~default:TSet.empty (Hashtbl.find_opt t.mem a)

  let mem_set t a s =
    if TSet.is_empty s then Hashtbl.remove t.mem a else Hashtbl.replace t.mem a s

  let step t (r : Machine.exec_record) =
    (match r.instr with
    | Instr.Li (rd, _) -> t.regs.(rd) <- TSet.empty
    | Instr.Mov (rd, rs) -> t.regs.(rd) <- t.regs.(rs)
    | Instr.Bin (_, rd, rs1, rs2) ->
      t.regs.(rd) <- TSet.union t.regs.(rs1) t.regs.(rs2)
    | Instr.Bini (_, rd, rs, _) -> t.regs.(rd) <- t.regs.(rs)
    | Instr.Load (_, rd, _, _) ->
      let addr, len = Option.get (Machine.mem_read r) in
      let acc = ref TSet.empty in
      for a = addr to addr + len - 1 do
        acc := TSet.union !acc (mem_get t a)
      done;
      t.regs.(rd) <- !acc
    | Instr.Store (_, rs, _, _) ->
      let addr, len = Option.get (Machine.mem_write r) in
      for a = addr to addr + len - 1 do
        mem_set t a t.regs.(rs)
      done
    | Instr.Branch _ | Instr.Jmp _ | Instr.Jr _ | Instr.Nop | Instr.Halt -> ()
    | Instr.Syscall _ -> ());
    (* syscall effects *)
    List.iter
      (function
        | Machine.Sys_wrote_mem { addr; len; source } ->
          let tags =
            match source_tag ~source with
            | Engine.Taint (tag, `Replace) -> Some (TSet.singleton tag)
            | Engine.Clear -> Some TSet.empty
            | _ -> None
          in
          (match tags with
          | Some s ->
            for a = addr to addr + len - 1 do
              mem_set t a s
            done
          | None -> ())
        | Machine.Sys_set_reg { reg } -> t.regs.(reg) <- TSet.empty
        | Machine.Sys_read_mem _ | Machine.Sys_snapshot_mem _
        | Machine.Sys_halt ->
          ())
      r.sys_effects

  let tainted_map t =
    Hashtbl.fold
      (fun a s acc -> (a, List.map Tag.to_string (TSet.elements s)) :: acc)
      t.mem []
    |> List.sort compare
end

let test_differential_reference_vs_engine () =
  let rng = Rng.create 424243 in
  for i = 1 to 40 do
    let prog = random_program rng in
    (* the engine under FAROS (direct flows only) *)
    let engine = run_policy prog Policies.faros in
    (* the reference interpreter over the recorded trace *)
    let m = machine_for prog in
    let reference = Reference.create () in
    ignore (Machine.run ~max_steps:200_000 m (Reference.step reference));
    let engine_map =
      let acc = ref [] in
      Shadow.iter_tainted (Engine.shadow engine) (fun a tags ->
          acc :=
            (a, List.sort compare (List.map Tag.to_string tags)) :: !acc);
      List.sort compare !acc
    in
    let reference_map =
      List.map
        (fun (a, tags) -> (a, List.sort compare tags))
        (Reference.tainted_map reference)
    in
    Alcotest.(check bool)
      (Printf.sprintf "program %d: engine = reference (%d tainted bytes)" i
         (List.length reference_map))
      true
      (engine_map = reference_map)
  done

(* Decoding is total: a trace with a few bytes flipped either decodes
   or is refused with [Malformed]. The mutants are never replayed: a
   flipped syscall effect can claim a range of gigabytes. *)
let qcheck_decode_total =
  let trace =
    Mitos_replay.Trace.to_string
      (Mitos_workload.Workload.record (Mitos_workload.Lookup_table.build ~seed:3 ()))
  in
  QCheck.Test.make ~name:"flipped trace bytes decode or raise Malformed"
    ~count:1000
    QCheck.(list_of_size (Gen.int_range 1 4) (pair small_nat (int_range 1 255)))
    (fun flips ->
      let b = Bytes.of_string trace in
      List.iter
        (fun (pos, x) ->
          let pos = pos mod Bytes.length b in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x)))
        flips;
      match Mitos_replay.Trace.of_string (Bytes.to_string b) with
      | _ -> true
      | exception Mitos_util.Codec.Malformed _ -> true)

let () =
  Alcotest.run "mitos_fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "accounting + monotonicity" `Slow test_fuzz_invariants;
          Alcotest.test_case "replay determinism" `Slow test_fuzz_replay_determinism;
          Alcotest.test_case "mitos between endpoints" `Slow
            test_fuzz_mitos_between_endpoints;
          Alcotest.test_case "backends + checkpoints" `Slow
            test_fuzz_backends_and_checkpoints;
          Alcotest.test_case "differential vs reference interpreter" `Slow
            test_differential_reference_vs_engine;
          QCheck_alcotest.to_alcotest qcheck_decode_total;
        ] );
    ]
