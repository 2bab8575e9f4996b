open Mitos_isa

(* -- Instr ------------------------------------------------------------ *)

let test_instr_reads_writes () =
  Alcotest.(check (list int)) "li reads" [] (Instr.reads (Instr.Li (1, 5)));
  Alcotest.(check (option int)) "li writes" (Some 1) (Instr.writes (Instr.Li (1, 5)));
  Alcotest.(check (list int)) "bin reads" [ 2; 3 ]
    (Instr.reads (Instr.Bin (Instr.Add, 1, 2, 3)));
  Alcotest.(check (list int)) "store reads value+base" [ 4; 5 ]
    (Instr.reads (Instr.Store (Instr.W8, 4, 5, 0)));
  Alcotest.(check (option int)) "store writes no reg" None
    (Instr.writes (Instr.Store (Instr.W8, 4, 5, 0)));
  Alcotest.(check (list int)) "load reads base" [ 5 ]
    (Instr.reads (Instr.Load (Instr.W32, 4, 5, 0)));
  Alcotest.(check (list int)) "syscall args" [ 1; 2; 3 ]
    (Instr.reads (Instr.Syscall 1))

let test_instr_control () =
  Alcotest.(check bool) "branch is branch" true
    (Instr.is_branch (Instr.Branch (Instr.Eq, 0, 0, 0)));
  Alcotest.(check bool) "jmp not branch" false (Instr.is_branch (Instr.Jmp 0));
  Alcotest.(check bool) "jmp is control" true (Instr.is_control (Instr.Jmp 0));
  Alcotest.(check bool) "halt is control" true (Instr.is_control Instr.Halt);
  Alcotest.(check (list int)) "branch targets" [ 7; 4 ]
    (Instr.branch_targets (Instr.Branch (Instr.Eq, 0, 0, 7)) ~next:4);
  Alcotest.(check (list int)) "jr unknown" []
    (Instr.branch_targets (Instr.Jr 3) ~next:4);
  Alcotest.(check (list int)) "fallthrough" [ 4 ]
    (Instr.branch_targets Instr.Nop ~next:4)

let arbitrary_instr =
  let open QCheck.Gen in
  let reg = int_range 0 (Instr.num_regs - 1) in
  let binop =
    oneofl
      [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Divu; Instr.Rem; Instr.And;
        Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr ]
  in
  let cond =
    oneofl [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge; Instr.Ltu; Instr.Geu ]
  in
  let width = oneofl [ Instr.W8; Instr.W32 ] in
  oneof
    [
      map2 (fun rd imm -> Instr.Li (rd, imm)) reg (int_range (-1000000) 1000000);
      map2 (fun rd rs -> Instr.Mov (rd, rs)) reg reg;
      (binop >>= fun op ->
       map3 (fun rd rs1 rs2 -> Instr.Bin (op, rd, rs1, rs2)) reg reg reg);
      (width >>= fun w ->
       map3 (fun rd rb off -> Instr.Load (w, rd, rb, off)) reg reg
         (int_range 0 1000));
      (cond >>= fun c ->
       map3 (fun rs1 rs2 target -> Instr.Branch (c, rs1, rs2, target)) reg reg
         (int_range 0 100));
      map (fun t -> Instr.Jmp t) (int_range 0 100);
      map (fun r -> Instr.Jr r) reg;
      map (fun n -> Instr.Syscall n) (int_range 0 16);
      return Instr.Nop;
      return Instr.Halt;
    ]

let qcheck_instr_codec_roundtrip =
  QCheck.Test.make ~name:"instr codec roundtrip" ~count:500
    (QCheck.make arbitrary_instr) (fun instr ->
      let enc = Mitos_util.Codec.Enc.create () in
      Instr.encode enc instr;
      let dec = Mitos_util.Codec.Dec.of_string (Mitos_util.Codec.Enc.contents enc) in
      Instr.decode dec = instr)

let qcheck_instr_equal =
  (* a decoded copy is equal but not physically the same value *)
  let copy instr =
    let enc = Mitos_util.Codec.Enc.create () in
    Instr.encode enc instr;
    Instr.decode (Mitos_util.Codec.Dec.of_string (Mitos_util.Codec.Enc.contents enc))
  in
  QCheck.Test.make ~name:"Instr.equal is structural equality" ~count:2000
    (QCheck.make QCheck.Gen.(pair arbitrary_instr arbitrary_instr))
    (fun (a, b) -> Instr.equal a b = (a = b) && Instr.equal a (copy a))

(* -- Asm / Program ----------------------------------------------------- *)

let test_asm_labels () =
  let a = Asm.create () in
  Asm.jmp a "end";
  (* forward reference *)
  Asm.label a "loop";
  Asm.nop a;
  Asm.branch a Instr.Eq 0 0 "loop";
  (* backward reference *)
  Asm.label a "end";
  Asm.halt a;
  let p = Asm.assemble a in
  Alcotest.(check int) "length" 4 (Program.length p);
  (match Program.instr p 0 with
  | Instr.Jmp 3 -> ()
  | i -> Alcotest.failf "expected jmp 3, got %s" (Instr.to_string i));
  (match Program.instr p 2 with
  | Instr.Branch (_, _, _, 1) -> ()
  | i -> Alcotest.failf "expected branch to 1, got %s" (Instr.to_string i));
  Alcotest.(check int) "label lookup" 1 (Program.label_addr p "loop")

let test_asm_li_label () =
  let a = Asm.create () in
  Asm.li_label a 4 "target";
  Asm.halt a;
  Asm.label a "target";
  Asm.nop a;
  let p = Asm.assemble a in
  match Program.instr p 0 with
  | Instr.Li (4, 2) -> ()
  | i -> Alcotest.failf "expected li r4, 2, got %s" (Instr.to_string i)

let test_asm_errors () =
  let a = Asm.create () in
  Asm.label a "x";
  Alcotest.(check bool) "duplicate label" true
    (try Asm.label a "x"; false with Invalid_argument _ -> true);
  let b = Asm.create () in
  Asm.jmp b "nowhere";
  Alcotest.(check bool) "undefined label" true
    (try ignore (Asm.assemble b); false with Invalid_argument _ -> true)

let test_program_validation () =
  Alcotest.(check bool) "bad target rejected" true
    (try ignore (Program.make [| Instr.Jmp 9 |]); false
     with Invalid_argument _ -> true)

let test_program_codec () =
  let a = Asm.create () in
  Asm.li a 1 42;
  Asm.label a "x";
  Asm.branch a Instr.Ne 1 2 "x";
  Asm.halt a;
  let p = Asm.assemble a in
  let enc = Mitos_util.Codec.Enc.create () in
  Program.encode enc p;
  let dec = Mitos_util.Codec.Dec.of_string (Mitos_util.Codec.Enc.contents enc) in
  let p' = Program.decode dec in
  Alcotest.(check bool) "same code" true (Program.code p = Program.code p');
  Alcotest.(check int) "labels kept" 1 (Program.label_addr p' "x")

(* -- Machine ------------------------------------------------------------ *)

let run_program instrs =
  let m = Machine.create ~mem_size:4096 (Program.make (Array.of_list instrs)) in
  ignore (Machine.run m (fun _ -> ()));
  m

let test_machine_arithmetic () =
  let m =
    run_program
      [
        Instr.Li (1, 10); Instr.Li (2, 3);
        Instr.Bin (Instr.Add, 3, 1, 2);
        Instr.Bin (Instr.Sub, 4, 1, 2);
        Instr.Bin (Instr.Mul, 5, 1, 2);
        Instr.Bin (Instr.Divu, 6, 1, 2);
        Instr.Bin (Instr.Rem, 7, 1, 2);
        Instr.Bini (Instr.Xor, 8, 1, 6);
        Instr.Bini (Instr.Shl, 9, 1, 4);
        Instr.Bini (Instr.Shr, 10, 1, 1);
        Instr.Halt;
      ]
  in
  Alcotest.(check int) "add" 13 (Machine.get_reg m 3);
  Alcotest.(check int) "sub" 7 (Machine.get_reg m 4);
  Alcotest.(check int) "mul" 30 (Machine.get_reg m 5);
  Alcotest.(check int) "divu" 3 (Machine.get_reg m 6);
  Alcotest.(check int) "rem" 1 (Machine.get_reg m 7);
  Alcotest.(check int) "xori" 12 (Machine.get_reg m 8);
  Alcotest.(check int) "shl" 160 (Machine.get_reg m 9);
  Alcotest.(check int) "shr" 5 (Machine.get_reg m 10)

let test_machine_masking () =
  let m =
    run_program
      [ Instr.Li (1, -1); Instr.Bini (Instr.Add, 2, 1, 2); Instr.Halt ]
  in
  Alcotest.(check int) "li masks to 32 bits" 0xFFFFFFFF (Machine.get_reg m 1);
  Alcotest.(check int) "wraparound" 1 (Machine.get_reg m 2)

let test_machine_memory () =
  let m =
    run_program
      [
        Instr.Li (1, 0x11223344); Instr.Li (2, 100);
        Instr.Store (Instr.W32, 1, 2, 0);
        Instr.Load (Instr.W8, 3, 2, 0);
        (* little-endian: lowest byte first *)
        Instr.Load (Instr.W8, 4, 2, 3);
        Instr.Load (Instr.W32, 5, 2, 0);
        Instr.Halt;
      ]
  in
  Alcotest.(check int) "byte 0 (LE)" 0x44 (Machine.get_reg m 3);
  Alcotest.(check int) "byte 3 (LE)" 0x11 (Machine.get_reg m 4);
  Alcotest.(check int) "word roundtrip" 0x11223344 (Machine.get_reg m 5)

let test_machine_branches () =
  let m =
    run_program
      [
        Instr.Li (1, 5); Instr.Li (2, 5);
        Instr.Branch (Instr.Eq, 1, 2, 5);
        Instr.Li (3, 111); (* skipped *)
        Instr.Halt;
        Instr.Li (3, 222);
        Instr.Halt;
      ]
  in
  Alcotest.(check int) "taken branch" 222 (Machine.get_reg m 3)

let test_machine_signed_compare () =
  let m =
    run_program
      [
        Instr.Li (1, -1); Instr.Li (2, 1);
        (* signed: -1 < 1 -> branch taken *)
        Instr.Branch (Instr.Lt, 1, 2, 5);
        Instr.Li (3, 0);
        Instr.Halt;
        Instr.Li (3, 1);
        (* unsigned: 0xFFFFFFFF > 1 -> not taken *)
        Instr.Branch (Instr.Ltu, 1, 2, 9);
        Instr.Li (4, 7);
        Instr.Halt;
        Instr.Halt;
      ]
  in
  Alcotest.(check int) "signed lt" 1 (Machine.get_reg m 3);
  Alcotest.(check int) "unsigned not lt" 7 (Machine.get_reg m 4)

let test_machine_jr () =
  let m =
    run_program
      [ Instr.Li (1, 3); Instr.Jr 1; Instr.Li (2, 9); Instr.Halt ]
  in
  Alcotest.(check int) "indirect jump skipped li" 0 (Machine.get_reg m 2)

let test_machine_faults () =
  let fault instrs =
    try
      ignore (run_program instrs);
      false
    with Machine.Fault _ -> true
  in
  Alcotest.(check bool) "div by zero" true
    (fault [ Instr.Li (1, 1); Instr.Li (2, 0); Instr.Bin (Instr.Divu, 3, 1, 2); Instr.Halt ]);
  Alcotest.(check bool) "oob store" true
    (fault [ Instr.Li (1, 100000); Instr.Store (Instr.W8, 0, 1, 0); Instr.Halt ]);
  Alcotest.(check bool) "jr out of program" true
    (fault [ Instr.Li (1, 500); Instr.Jr 1; Instr.Halt ]);
  Alcotest.(check bool) "unhandled syscall" true
    (fault [ Instr.Syscall 1; Instr.Halt ])

let test_machine_step_records () =
  let m =
    Machine.create ~mem_size:256
      (Program.make
         [| Instr.Li (1, 7); Instr.Store (Instr.W8, 1, 2, 5); Instr.Halt |])
  in
  let r1 = Option.get (Machine.step m) in
  Alcotest.(check int) "step number" 0 r1.Machine.step;
  Alcotest.(check (option (pair int int))) "reg write" (Some (1, 7))
    (Machine.reg_write r1);
  let r2 = Option.get (Machine.step m) in
  Alcotest.(check (option (pair int int))) "mem write" (Some (5, 1))
    (Machine.mem_write r2);
  Alcotest.(check (list (pair int int))) "reg reads" [ (1, 7); (2, 0) ]
    (Machine.reg_reads r2);
  let r3 = Option.get (Machine.step m) in
  Alcotest.(check bool) "halt record" true (r3.Machine.instr = Instr.Halt);
  Alcotest.(check bool) "after halt" true (Machine.step m = None);
  Alcotest.(check bool) "halted" true (Machine.halted m)

let test_machine_syscall_handler () =
  let effects_seen = ref [] in
  let handler m ~sysno =
    effects_seen := sysno :: !effects_seen;
    Machine.set_reg m 1 99;
    if sysno = 2 then [ Machine.Sys_halt ]
    else [ Machine.Sys_set_reg { reg = 1 } ]
  in
  let m =
    Machine.create ~mem_size:256 ~syscall:handler
      (Program.make [| Instr.Syscall 1; Instr.Syscall 2; Instr.Li (3, 1) |])
  in
  let n = Machine.run m (fun _ -> ()) in
  Alcotest.(check int) "stopped at sys_halt" 2 n;
  Alcotest.(check int) "handler ran" 99 (Machine.get_reg m 1);
  Alcotest.(check (list int)) "syscall order" [ 2; 1 ] !effects_seen;
  Alcotest.(check int) "halted before li" 0 (Machine.get_reg m 3)

let test_machine_max_steps () =
  let m =
    Machine.create ~mem_size:64 (Program.make [| Instr.Jmp 0 |])
  in
  Alcotest.(check int) "max steps respected" 100
    (Machine.run ~max_steps:100 m (fun _ -> ()))

let test_machine_bulk_memory_ops () =
  let m = Machine.create ~mem_size:64 (Program.make [| Instr.Halt |]) in
  Machine.blit_string m 10 "hello";
  Alcotest.(check string) "blit_string" "hello"
    (Bytes.to_string (Machine.read_bytes m 10 5));
  Machine.write_bytes m 20 (Bytes.of_string "xyz");
  Alcotest.(check string) "write_bytes" "xyz"
    (Bytes.to_string (Machine.read_bytes m 20 3));
  Alcotest.(check bool) "read out of range" true
    (try ignore (Machine.read_bytes m 60 10); false with Machine.Fault _ -> true);
  Alcotest.(check bool) "blit out of range" true
    (try Machine.blit_string m 62 "abc"; false with Machine.Fault _ -> true)

let test_program_pp_listing () =
  let a = Asm.create () in
  Asm.li a 1 5;
  Asm.label a "loop";
  Asm.branch a Instr.Ne 1 2 "loop";
  Asm.halt a;
  let p = Asm.assemble a in
  let listing = Format.asprintf "%a" Program.pp p in
  let contains needle =
    let n = String.length needle and h = String.length listing in
    let rec go i = i + n <= h && (String.sub listing i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "label printed" true (contains "loop:");
  Alcotest.(check bool) "instruction printed" true (contains "li r1, 5");
  Alcotest.(check bool) "branch rendered with target" true (contains "@1")

let test_asm_here () =
  let a = Asm.create () in
  Alcotest.(check int) "empty" 0 (Asm.here a);
  Asm.nop a;
  Asm.nop a;
  Alcotest.(check int) "after two" 2 (Asm.here a);
  ignore (Asm.assemble a);
  Alcotest.(check bool) "builder not reusable" true
    (try Asm.nop a; false with Invalid_argument _ -> true)

let test_pp_record () =
  let m = Machine.create ~mem_size:64 (Program.make [| Instr.Li (1, 9); Instr.Halt |]) in
  let r = Option.get (Machine.step m) in
  Alcotest.(check string) "record rendering" "#0 @0 li r1, 9"
    (Format.asprintf "%a" Machine.pp_record r)

let codec_prog =
  Program.make
    [|
      Instr.Li (1, 3); Instr.Store (Instr.W32, 1, 1, 0);
      Instr.Branch (Instr.Eq, 1, 1, 4); Instr.Nop; Instr.Halt;
    |]

let record_roundtrip prog r =
  let enc = Mitos_util.Codec.Enc.create () in
  Machine.encode_record enc r;
  Machine.decode_record prog
    (Mitos_util.Codec.Dec.of_string (Mitos_util.Codec.Enc.contents enc))

let test_record_codec_roundtrip () =
  let m = Machine.create ~mem_size:256 codec_prog in
  let records = ref [] in
  ignore (Machine.run m (fun r -> records := r :: !records));
  List.iter
    (fun r ->
      let r' = record_roundtrip codec_prog r in
      Alcotest.(check bool) "record roundtrip" true (r' = r);
      Alcotest.(check bool) "instruction is the program's own" true
        (r'.Machine.instr == Program.instr codec_prog r.Machine.pc))
    !records

let test_record_decode_disagreeing_instr () =
  (* a record whose instruction differs from the program's at its pc
     (or whose pc lies outside the program) decodes to what was
     encoded, never to the program's instruction *)
  let r =
    {
      Machine.step = 0; pc = 0; instr = Instr.Li (1, 4); read0 = 0; read1 = 0;
      read2 = 0; written = 4; mem_addr = 0; taken = false; next_pc = 1;
      sys_effects = [];
    }
  in
  let r' = record_roundtrip codec_prog r in
  Alcotest.(check bool) "decodes as encoded" true (r' = r);
  Alcotest.(check bool) "not the program's" false
    (Instr.equal r'.Machine.instr (Program.instr codec_prog 0));
  let far = { r with Machine.pc = 99; instr = Instr.Nop; written = 0 } in
  Alcotest.(check bool) "pc outside the program" true
    (record_roundtrip codec_prog far = far)

(* -- Parser ------------------------------------------------------------- *)

let test_parser_basic_program () =
  let p =
    Parser.parse
      {|
        ; translate one byte
        li r4, 100
        loop:
          ldb r8, 0(r4)     # load
          addi r9, r8, 512
          ldb r8, 0(r9)
          stb r8, 1(r4)
          bltu r4, r6, @loop
        halt
      |}
  in
  Alcotest.(check int) "seven instructions" 7 (Program.length p);
  Alcotest.(check int) "label resolved" 1 (Program.label_addr p "loop");
  (match Program.instr p 5 with
  | Instr.Branch (Instr.Ltu, 4, 6, 1) -> ()
  | i -> Alcotest.failf "bad branch: %s" (Instr.to_string i))

let test_parser_absolute_targets_and_index_column () =
  let p = Parser.parse "   0  li r1, 5\n   1  jmp @0\n   2  halt\n" in
  Alcotest.(check int) "three instructions" 3 (Program.length p);
  match Program.instr p 1 with
  | Instr.Jmp 0 -> ()
  | i -> Alcotest.failf "bad jmp: %s" (Instr.to_string i)

let test_parser_errors () =
  let fails ?(semantic = false) src =
    try
      ignore (Parser.parse src);
      false
    with
    | Parser.Parse_error _ -> true
    | Invalid_argument _ -> semantic
  in
  Alcotest.(check bool) "unknown mnemonic" true (fails "frobnicate r1");
  Alcotest.(check bool) "bad register" true (fails "li r99, 1");
  Alcotest.(check bool) "wrong arity" true (fails "add r1, r2");
  Alcotest.(check bool) "bad target" true (fails "jmp r1");
  Alcotest.(check bool) "undefined label" true
    (fails "jmp @nowhere\nhalt");
  Alcotest.(check bool) "line number reported" true
    (try ignore (Parser.parse "nop\nbogus r1\n"); false
     with Parser.Parse_error (2, _) -> true | _ -> false)

let test_parser_roundtrips_workload_syntax () =
  (* every instruction the printer can emit must parse back *)
  let a = Asm.create () in
  Asm.li a 1 (-5);
  Asm.mov a 2 1;
  Asm.bin a Instr.Mul 3 1 2;
  Asm.bini a Instr.Shr 4 3 2;
  Asm.loadw a 5 4 (-8);
  Asm.storew a 5 4 12;
  Asm.loadb a 6 5 0;
  Asm.storeb a 6 5 1;
  Asm.label a "x";
  Asm.branch a Instr.Geu 1 2 "x";
  Asm.jmp a "x";
  Asm.jr a 6;
  Asm.syscall a 7;
  Asm.nop a;
  Asm.halt a;
  let p = Asm.assemble a in
  Alcotest.(check bool) "printer/parser round trip" true
    (Parser.parse_roundtrip_check p)

let qcheck_parser_roundtrip_random =
  QCheck.Test.make ~name:"parse . pp = id on random valid programs" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 30) arbitrary_instr))
    (fun instrs ->
      (* clamp targets to the program and terminate it *)
      let n = List.length instrs + 1 in
      let fix = function
        | Instr.Branch (c, a, b, t) -> Instr.Branch (c, a, b, t mod n)
        | Instr.Jmp t -> Instr.Jmp (t mod n)
        | i -> i
      in
      let code = Array.of_list (List.map fix instrs @ [ Instr.Halt ]) in
      Parser.parse_roundtrip_check (Program.make code))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mitos_isa"
    [
      ( "instr",
        [
          Alcotest.test_case "reads/writes" `Quick test_instr_reads_writes;
          Alcotest.test_case "control" `Quick test_instr_control;
          q qcheck_instr_codec_roundtrip;
          q qcheck_instr_equal;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "li_label" `Quick test_asm_li_label;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "program validation" `Quick test_program_validation;
          Alcotest.test_case "program codec" `Quick test_program_codec;
        ] );
      ( "machine",
        [
          Alcotest.test_case "arithmetic" `Quick test_machine_arithmetic;
          Alcotest.test_case "32-bit masking" `Quick test_machine_masking;
          Alcotest.test_case "memory LE" `Quick test_machine_memory;
          Alcotest.test_case "branches" `Quick test_machine_branches;
          Alcotest.test_case "signed/unsigned compare" `Quick test_machine_signed_compare;
          Alcotest.test_case "indirect jump" `Quick test_machine_jr;
          Alcotest.test_case "faults" `Quick test_machine_faults;
          Alcotest.test_case "step records" `Quick test_machine_step_records;
          Alcotest.test_case "syscall handler" `Quick test_machine_syscall_handler;
          Alcotest.test_case "max steps" `Quick test_machine_max_steps;
          Alcotest.test_case "record codec" `Quick test_record_codec_roundtrip;
          Alcotest.test_case "bulk memory ops" `Quick test_machine_bulk_memory_ops;
          Alcotest.test_case "program listing" `Quick test_program_pp_listing;
          Alcotest.test_case "asm here/reuse" `Quick test_asm_here;
          Alcotest.test_case "pp_record" `Quick test_pp_record;
          Alcotest.test_case "record decode keeps a disagreeing instr" `Quick
            test_record_decode_disagreeing_instr;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic program" `Quick test_parser_basic_program;
          Alcotest.test_case "absolute targets / index column" `Quick
            test_parser_absolute_targets_and_index_column;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "printer round trip" `Quick
            test_parser_roundtrips_workload_syntax;
          q qcheck_parser_roundtrip_random;
        ] );
    ]
