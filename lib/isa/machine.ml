exception Fault of string

type sys_effect =
  | Sys_wrote_mem of { addr : int; len : int; source : int }
  | Sys_read_mem of { addr : int; len : int; sink : int }
  | Sys_snapshot_mem of { addr : int; len : int; key : int }
  | Sys_set_reg of { reg : int }
  | Sys_halt

type exec_record = {
  step : int;
  pc : int;
  instr : Instr.t;
  read0 : int;
  read1 : int;
  read2 : int;
  written : int;
  mem_addr : int;
  taken : bool;
  next_pc : int;
  sys_effects : sys_effect list;
}

type t = {
  prog : Program.t;
  mem : Bytes.t;
  regs : int array;
  mutable pc : int;
  mutable steps : int;
  mutable halted : bool;
  syscall : syscall_handler;
}

and syscall_handler = t -> sysno:int -> sys_effect list

let default_syscall _ ~sysno =
  raise (Fault (Printf.sprintf "unhandled syscall %d" sysno))

let create ?(mem_size = 1 lsl 20) ?(syscall = default_syscall) prog =
  {
    prog;
    mem = Bytes.make mem_size '\000';
    regs = Array.make Instr.num_regs 0;
    pc = 0;
    steps = 0;
    halted = false;
    syscall;
  }

let program t = t.prog
let mem_size t = Bytes.length t.mem
let pc t = t.pc
let steps t = t.steps
let halted t = t.halted

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let get_reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- mask32 v

let check_range t addr len what =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.mem then
    raise (Fault (Printf.sprintf "%s out of range: addr=%d len=%d" what addr len))

let read_byte t addr =
  check_range t addr 1 "read";
  Char.code (Bytes.get t.mem addr)

let write_byte t addr v =
  check_range t addr 1 "write";
  Bytes.set t.mem addr (Char.chr (v land 0xFF))

let read_word t addr =
  check_range t addr 4 "read";
  Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xFFFFFFFF

let write_word t addr v =
  check_range t addr 4 "write";
  Bytes.set_int32_le t.mem addr (Int32.of_int (mask32 v))

let read_bytes t addr len =
  check_range t addr len "read";
  Bytes.sub t.mem addr len

let write_bytes t addr b =
  check_range t addr (Bytes.length b) "write";
  Bytes.blit b 0 t.mem addr (Bytes.length b)

let blit_string t addr s =
  check_range t addr (String.length s) "write";
  Bytes.blit_string s 0 t.mem addr (String.length s)

let eval_binop op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Divu ->
    if b = 0 then raise (Fault "division by zero");
    mask32 a / mask32 b
  | Instr.Rem ->
    if b = 0 then raise (Fault "remainder by zero");
    mask32 a mod mask32 b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 31)
  | Instr.Shr -> mask32 a lsr (b land 31)

let eval_cond c a b =
  match c with
  | Instr.Eq -> mask32 a = mask32 b
  | Instr.Ne -> mask32 a <> mask32 b
  | Instr.Lt -> sign32 a < sign32 b
  | Instr.Ge -> sign32 a >= sign32 b
  | Instr.Ltu -> mask32 a < mask32 b
  | Instr.Geu -> mask32 a >= mask32 b

let step t =
  if t.halted then None
  else begin
    let pc = t.pc in
    if pc < 0 || pc >= Program.length t.prog then
      raise (Fault (Printf.sprintf "pc out of program: %d" pc));
    let instr = Program.instr t.prog pc in
    let step_no = t.steps in
    let fall_through = pc + 1 in
    let record =
      match instr with
      | Instr.Li (rd, imm) ->
        set_reg t rd imm;
        {
          step = step_no; pc; instr; read0 = 0; read1 = 0; read2 = 0;
          written = t.regs.(rd); mem_addr = 0; taken = false;
          next_pc = fall_through; sys_effects = [];
        }
      | Instr.Mov (rd, rs) ->
        let v = t.regs.(rs) in
        set_reg t rd v;
        {
          step = step_no; pc; instr; read0 = v; read1 = 0; read2 = 0;
          written = t.regs.(rd); mem_addr = 0; taken = false;
          next_pc = fall_through; sys_effects = [];
        }
      | Instr.Bin (op, rd, rs1, rs2) ->
        let a = t.regs.(rs1) and b = t.regs.(rs2) in
        set_reg t rd (eval_binop op a b);
        {
          step = step_no; pc; instr; read0 = a; read1 = b; read2 = 0;
          written = t.regs.(rd); mem_addr = 0; taken = false;
          next_pc = fall_through; sys_effects = [];
        }
      | Instr.Bini (op, rd, rs, imm) ->
        let a = t.regs.(rs) in
        set_reg t rd (eval_binop op a imm);
        {
          step = step_no; pc; instr; read0 = a; read1 = 0; read2 = 0;
          written = t.regs.(rd); mem_addr = 0; taken = false;
          next_pc = fall_through; sys_effects = [];
        }
      | Instr.Load (w, rd, rb, off) ->
        let base = t.regs.(rb) in
        let addr = base + off in
        let v = match w with Instr.W8 -> read_byte t addr | Instr.W32 -> read_word t addr in
        set_reg t rd v;
        {
          step = step_no; pc; instr; read0 = base; read1 = 0; read2 = 0;
          written = t.regs.(rd); mem_addr = addr; taken = false;
          next_pc = fall_through; sys_effects = [];
        }
      | Instr.Store (w, rs, rb, off) ->
        let v = t.regs.(rs) and base = t.regs.(rb) in
        let addr = base + off in
        (match w with
        | Instr.W8 -> write_byte t addr v
        | Instr.W32 -> write_word t addr v);
        {
          step = step_no; pc; instr; read0 = v; read1 = base; read2 = 0;
          written = 0; mem_addr = addr; taken = false; next_pc = fall_through;
          sys_effects = [];
        }
      | Instr.Branch (c, rs1, rs2, target) ->
        let a = t.regs.(rs1) and b = t.regs.(rs2) in
        let taken = eval_cond c a b in
        {
          step = step_no; pc; instr; read0 = a; read1 = b; read2 = 0;
          written = 0; mem_addr = 0; taken;
          next_pc = (if taken then target else fall_through); sys_effects = [];
        }
      | Instr.Jmp target ->
        {
          step = step_no; pc; instr; read0 = 0; read1 = 0; read2 = 0;
          written = 0; mem_addr = 0; taken = false; next_pc = target;
          sys_effects = [];
        }
      | Instr.Jr rs ->
        let target = t.regs.(rs) in
        if target < 0 || target >= Program.length t.prog then
          raise (Fault (Printf.sprintf "indirect jump to %d" target));
        {
          step = step_no; pc; instr; read0 = target; read1 = 0; read2 = 0;
          written = 0; mem_addr = 0; taken = false; next_pc = target;
          sys_effects = [];
        }
      | Instr.Syscall sysno ->
        (* the argument registers, read before the handler runs *)
        let a1 = t.regs.(1) and a2 = t.regs.(2) and a3 = t.regs.(3) in
        let effects = t.syscall t ~sysno in
        if List.exists (function Sys_halt -> true | _ -> false) effects then
          t.halted <- true;
        {
          step = step_no; pc; instr; read0 = a1; read1 = a2; read2 = a3;
          written = 0; mem_addr = 0; taken = false; next_pc = fall_through;
          sys_effects = effects;
        }
      | Instr.Nop ->
        {
          step = step_no; pc; instr; read0 = 0; read1 = 0; read2 = 0;
          written = 0; mem_addr = 0; taken = false; next_pc = fall_through;
          sys_effects = [];
        }
      | Instr.Halt ->
        t.halted <- true;
        {
          step = step_no; pc; instr; read0 = 0; read1 = 0; read2 = 0;
          written = 0; mem_addr = 0; taken = false; next_pc = pc;
          sys_effects = [];
        }
    in
    t.steps <- t.steps + 1;
    if not t.halted then t.pc <- record.next_pc;
    Some record
  end

let run ?(max_steps = 10_000_000) t f =
  let executed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !executed < max_steps do
    match step t with
    | None -> continue_ := false
    | Some record ->
      f record;
      incr executed
  done;
  !executed

let pp_record ppf r =
  Format.fprintf ppf "#%d @%d %a" r.step r.pc Instr.pp r.instr

(* The value of the [i]th register [Instr.reads r.instr] names. *)
let read_value r i = match i with 0 -> r.read0 | 1 -> r.read1 | _ -> r.read2

let reg_reads r =
  List.mapi (fun i reg -> (reg, read_value r i)) (Instr.reads r.instr)

let reg_write r =
  match Instr.write_reg r.instr with -1 -> None | rd -> Some (rd, r.written)

(* Bytes a load reads, and bytes a store writes: 0 for any other
   instruction. *)
let read_len = function Instr.Load (w, _, _, _) -> Instr.bytes_of_width w | _ -> 0
let write_len = function Instr.Store (w, _, _, _) -> Instr.bytes_of_width w | _ -> 0

let mem_read r =
  match read_len r.instr with 0 -> None | len -> Some (r.mem_addr, len)

let mem_write r =
  match write_len r.instr with 0 -> None | len -> Some (r.mem_addr, len)

let taken r = if Instr.is_branch r.instr then Some r.taken else None

(* Trace codec *)

let encode_effect enc e =
  let module E = Mitos_util.Codec.Enc in
  match e with
  | Sys_wrote_mem { addr; len; source } ->
    E.uint enc 0; E.uint enc addr; E.uint enc len; E.int enc source
  | Sys_read_mem { addr; len; sink } ->
    E.uint enc 1; E.uint enc addr; E.uint enc len; E.int enc sink
  | Sys_set_reg { reg } -> E.uint enc 2; E.uint enc reg
  | Sys_halt -> E.uint enc 3
  | Sys_snapshot_mem { addr; len; key } ->
    E.uint enc 4; E.uint enc addr; E.uint enc len; E.int enc key

let decode_effect dec =
  let module D = Mitos_util.Codec.Dec in
  match D.uint dec with
  | 0 ->
    let addr = D.uint dec in
    let len = D.uint dec in
    Sys_wrote_mem { addr; len; source = D.int dec }
  | 1 ->
    let addr = D.uint dec in
    let len = D.uint dec in
    Sys_read_mem { addr; len; sink = D.int dec }
  | 2 -> Sys_set_reg { reg = D.uint dec }
  | 3 -> Sys_halt
  | 4 ->
    let addr = D.uint dec in
    let len = D.uint dec in
    Sys_snapshot_mem { addr; len; key = D.int dec }
  | n -> raise (Mitos_util.Codec.Malformed (Printf.sprintf "sys_effect %d" n))

(* A memory access the instruction makes iff [len > 0]. *)
let encode_access enc ~len addr =
  let module E = Mitos_util.Codec.Enc in
  E.bool enc (len > 0);
  if len > 0 then begin
    E.uint enc addr;
    E.uint enc len
  end

(* MITRACE1 spells out the register numbers, presence flags and widths
   a record's instruction implies; [decode_record] checks them. *)
let encode_record enc r =
  let module E = Mitos_util.Codec.Enc in
  let instr = r.instr in
  E.uint enc r.step;
  E.uint enc r.pc;
  Instr.encode enc instr;
  let reads = Instr.read_count instr in
  E.uint enc reads;
  for i = 0 to reads - 1 do
    E.uint enc (Instr.read_reg instr i);
    E.uint enc (read_value r i)
  done;
  let rd = Instr.write_reg instr in
  E.bool enc (rd >= 0);
  if rd >= 0 then begin
    E.uint enc rd;
    E.uint enc r.written
  end;
  encode_access enc ~len:(read_len instr) r.mem_addr;
  encode_access enc ~len:(write_len instr) r.mem_addr;
  let branch = Instr.is_branch instr in
  E.bool enc branch;
  if branch then E.bool enc r.taken;
  E.uint enc r.next_pc;
  E.list enc (encode_effect enc) r.sys_effects

let disagree pc what =
  raise
    (Mitos_util.Codec.Malformed
       (Printf.sprintf "record at pc %d: %s disagrees with its instruction" pc
          what))

(* The value of register [Instr.read_reg instr i], after checking the
   input names that register. *)
let decode_read dec instr pc i =
  let module D = Mitos_util.Codec.Dec in
  if D.uint dec <> Instr.read_reg instr i then disagree pc "a read register";
  D.uint dec

(* The address of a memory access the instruction makes iff [len > 0],
   after checking the presence flag and the width; 0 when absent. *)
let decode_access dec ~len pc what =
  let module D = Mitos_util.Codec.Dec in
  let present = D.bool dec in
  if present <> (len > 0) then disagree pc what;
  if present then begin
    let addr = D.uint dec in
    if D.uint dec <> len then disagree pc what;
    addr
  end
  else 0

let decode_record prog dec =
  let module D = Mitos_util.Codec.Dec in
  let step = D.uint dec in
  let pc = D.uint dec in
  let instr =
    if pc >= 0 && pc < Program.length prog then
      Instr.decode_as (Program.instr prog pc) dec
    else Instr.decode dec
  in
  let reads = Instr.read_count instr in
  if D.uint dec <> reads then disagree pc "the number of read registers";
  let read0 = if reads > 0 then decode_read dec instr pc 0 else 0 in
  let read1 = if reads > 1 then decode_read dec instr pc 1 else 0 in
  let read2 = if reads > 2 then decode_read dec instr pc 2 else 0 in
  let rd = Instr.write_reg instr in
  if D.bool dec <> (rd >= 0) then disagree pc "the register write";
  let written =
    if rd >= 0 then begin
      if D.uint dec <> rd then disagree pc "the written register";
      D.uint dec
    end
    else 0
  in
  let load_addr = decode_access dec ~len:(read_len instr) pc "the memory read" in
  let store_addr =
    decode_access dec ~len:(write_len instr) pc "the memory write"
  in
  let branch = Instr.is_branch instr in
  if D.bool dec <> branch then disagree pc "the branch outcome";
  let taken = branch && D.bool dec in
  let next_pc = D.uint dec in
  let sys_effects = D.list dec decode_effect in
  {
    step; pc; instr; read0; read1; read2; written;
    mem_addr = (match instr with Instr.Load _ -> load_addr | _ -> store_addr);
    taken; next_pc; sys_effects;
  }
