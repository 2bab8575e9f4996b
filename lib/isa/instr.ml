let num_regs = 16
let word_size = 4

type binop = Add | Sub | Mul | Divu | Rem | And | Or | Xor | Shl | Shr
type cond = Eq | Ne | Lt | Ge | Ltu | Geu
type width = W8 | W32

type t =
  | Li of int * int
  | Mov of int * int
  | Bin of binop * int * int * int
  | Bini of binop * int * int * int
  | Load of width * int * int * int
  | Store of width * int * int * int
  | Branch of cond * int * int * int
  | Jmp of int
  | Jr of int
  | Syscall of int
  | Nop
  | Halt

let bytes_of_width = function W8 -> 1 | W32 -> 4

let equal a b = a == b || a = b

let read_count = function
  | Li _ | Jmp _ | Nop | Halt -> 0
  | Mov _ | Bini _ | Jr _ | Load _ -> 1
  | Bin _ | Branch _ | Store _ -> 2
  | Syscall _ -> 3

let read_reg t i =
  if i < 0 || i >= read_count t then invalid_arg "Instr.read_reg";
  match t with
  | Mov (_, rs) | Bini (_, _, rs, _) | Jr rs | Load (_, _, rs, _) -> rs
  | Bin (_, _, rs1, rs2) | Branch (_, rs1, rs2, _) | Store (_, rs1, rs2, _) ->
    if i = 0 then rs1 else rs2
  | Syscall _ -> i + 1 (* argument-register convention: r1-r3 *)
  | Li _ | Jmp _ | Nop | Halt -> assert false (* read_count is 0 *)

let reads t = List.init (read_count t) (read_reg t)

let write_reg = function
  | Li (rd, _) | Mov (rd, _) | Bin (_, rd, _, _) | Bini (_, rd, _, _)
  | Load (_, rd, _, _) ->
    rd
  | Store _ | Branch _ | Jmp _ | Jr _ | Syscall _ | Nop | Halt -> -1

let writes t = match write_reg t with -1 -> None | rd -> Some rd

let is_branch = function Branch _ -> true | _ -> false

let is_control = function
  | Branch _ | Jmp _ | Jr _ | Halt -> true
  | _ -> false

let branch_targets t ~next =
  match t with
  | Branch (_, _, _, target) -> [ target; next ]
  | Jmp target -> [ target ]
  | Jr _ | Halt -> []
  | _ -> [ next ]

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Divu -> "divu"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cond_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Ltu -> "ltu"
  | Geu -> "geu"

let width_to_string = function W8 -> "b" | W32 -> "w"

let to_string = function
  | Li (rd, imm) -> Printf.sprintf "li r%d, %d" rd imm
  | Mov (rd, rs) -> Printf.sprintf "mov r%d, r%d" rd rs
  | Bin (op, rd, rs1, rs2) ->
    Printf.sprintf "%s r%d, r%d, r%d" (binop_to_string op) rd rs1 rs2
  | Bini (op, rd, rs, imm) ->
    Printf.sprintf "%si r%d, r%d, %d" (binop_to_string op) rd rs imm
  | Load (w, rd, rb, off) ->
    Printf.sprintf "ld%s r%d, %d(r%d)" (width_to_string w) rd off rb
  | Store (w, rs, rb, off) ->
    Printf.sprintf "st%s r%d, %d(r%d)" (width_to_string w) rs off rb
  | Branch (c, rs1, rs2, target) ->
    Printf.sprintf "b%s r%d, r%d, @%d" (cond_to_string c) rs1 rs2 target
  | Jmp target -> Printf.sprintf "jmp @%d" target
  | Jr rs -> Printf.sprintf "jr r%d" rs
  | Syscall n -> Printf.sprintf "syscall %d" n
  | Nop -> "nop"
  | Halt -> "halt"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Binary codec: opcode byte then operands as varints. *)

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Divu -> 3 | Rem -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9

let binop_of_code = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Divu | 4 -> Rem | 5 -> And
  | 6 -> Or | 7 -> Xor | 8 -> Shl | 9 -> Shr
  | n -> raise (Mitos_util.Codec.Malformed (Printf.sprintf "binop code %d" n))

let cond_code = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Ge -> 3 | Ltu -> 4 | Geu -> 5

let cond_of_code = function
  | 0 -> Eq | 1 -> Ne | 2 -> Lt | 3 -> Ge | 4 -> Ltu | 5 -> Geu
  | n -> raise (Mitos_util.Codec.Malformed (Printf.sprintf "cond code %d" n))

let width_code = function W8 -> 0 | W32 -> 1

let width_of_code = function
  | 0 -> W8
  | 1 -> W32
  | n -> raise (Mitos_util.Codec.Malformed (Printf.sprintf "width code %d" n))

let encode enc t =
  let module E = Mitos_util.Codec.Enc in
  match t with
  | Li (rd, imm) -> E.uint enc 0; E.uint enc rd; E.int enc imm
  | Mov (rd, rs) -> E.uint enc 1; E.uint enc rd; E.uint enc rs
  | Bin (op, rd, rs1, rs2) ->
    E.uint enc 2; E.uint enc (binop_code op); E.uint enc rd; E.uint enc rs1;
    E.uint enc rs2
  | Bini (op, rd, rs, imm) ->
    E.uint enc 3; E.uint enc (binop_code op); E.uint enc rd; E.uint enc rs;
    E.int enc imm
  | Load (w, rd, rb, off) ->
    E.uint enc 4; E.uint enc (width_code w); E.uint enc rd; E.uint enc rb;
    E.int enc off
  | Store (w, rs, rb, off) ->
    E.uint enc 5; E.uint enc (width_code w); E.uint enc rs; E.uint enc rb;
    E.int enc off
  | Branch (c, rs1, rs2, target) ->
    E.uint enc 6; E.uint enc (cond_code c); E.uint enc rs1; E.uint enc rs2;
    E.uint enc target
  | Jmp target -> E.uint enc 7; E.uint enc target
  | Jr rs -> E.uint enc 8; E.uint enc rs
  | Syscall n -> E.uint enc 9; E.uint enc n
  | Nop -> E.uint enc 10
  | Halt -> E.uint enc 11

(* Each field is read into a local and compared with [own]'s; only an
   instruction that differs from [own] is built. The binop, condition
   and width constructors are constants, so [==] compares them. *)
let decode_as own dec =
  let module D = Mitos_util.Codec.Dec in
  match D.uint dec with
  | 0 -> (
    let rd = D.uint dec in
    let imm = D.int dec in
    match own with
    | Li (rd', imm') when rd = rd' && imm = imm' -> own
    | _ -> Li (rd, imm))
  | 1 -> (
    let rd = D.uint dec in
    let rs = D.uint dec in
    match own with
    | Mov (rd', rs') when rd = rd' && rs = rs' -> own
    | _ -> Mov (rd, rs))
  | 2 -> (
    let op = binop_of_code (D.uint dec) in
    let rd = D.uint dec in
    let rs1 = D.uint dec in
    let rs2 = D.uint dec in
    match own with
    | Bin (op', rd', rs1', rs2')
      when op == op' && rd = rd' && rs1 = rs1' && rs2 = rs2' ->
      own
    | _ -> Bin (op, rd, rs1, rs2))
  | 3 -> (
    let op = binop_of_code (D.uint dec) in
    let rd = D.uint dec in
    let rs = D.uint dec in
    let imm = D.int dec in
    match own with
    | Bini (op', rd', rs', imm')
      when op == op' && rd = rd' && rs = rs' && imm = imm' ->
      own
    | _ -> Bini (op, rd, rs, imm))
  | 4 -> (
    let w = width_of_code (D.uint dec) in
    let rd = D.uint dec in
    let rb = D.uint dec in
    let off = D.int dec in
    match own with
    | Load (w', rd', rb', off')
      when w == w' && rd = rd' && rb = rb' && off = off' ->
      own
    | _ -> Load (w, rd, rb, off))
  | 5 -> (
    let w = width_of_code (D.uint dec) in
    let rs = D.uint dec in
    let rb = D.uint dec in
    let off = D.int dec in
    match own with
    | Store (w', rs', rb', off')
      when w == w' && rs = rs' && rb = rb' && off = off' ->
      own
    | _ -> Store (w, rs, rb, off))
  | 6 -> (
    let c = cond_of_code (D.uint dec) in
    let rs1 = D.uint dec in
    let rs2 = D.uint dec in
    let target = D.uint dec in
    match own with
    | Branch (c', rs1', rs2', target')
      when c == c' && rs1 = rs1' && rs2 = rs2' && target = target' ->
      own
    | _ -> Branch (c, rs1, rs2, target))
  | 7 -> (
    let target = D.uint dec in
    match own with Jmp target' when target = target' -> own | _ -> Jmp target)
  | 8 -> (
    let rs = D.uint dec in
    match own with Jr rs' when rs = rs' -> own | _ -> Jr rs)
  | 9 -> (
    let n = D.uint dec in
    match own with Syscall n' when n = n' -> own | _ -> Syscall n)
  | 10 -> Nop
  | 11 -> Halt
  | n -> raise (Mitos_util.Codec.Malformed (Printf.sprintf "opcode %d" n))

let decode dec = decode_as Nop dec
