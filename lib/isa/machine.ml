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

(* A value a record carries, as opposed to a field its instruction
   fixes. *)
type slot = Read0 | Read1 | Read2 | Written | Addr | Taken | Next_pc | Effects

(* A memory access the instruction makes iff [len > 0]. *)
let access a b ~fixed ~flag ~value len what =
  flag a b (len > 0) what;
  if len > 0 then begin
    value a b Addr;
    fixed a b len what
  end

(* The MITRACE1 layout of a record of [instr] after its step, its pc
   and the instruction's own encoding: one call per field, in the order
   the bytes hold them. [fixed a b n what] is a uint the instruction
   fixes (a count, a register number or a width) and [flag a b v what]
   a bool it fixes (a presence flag); [what] names the field when the
   bytes disagree. [value a b slot] is a field the record carries.
   [encode_record], [decode_record] and the decode plans are all built
   from this one description. The callers' state travels in [a] and
   [b], so top-level callbacks make a walk that allocates nothing. *)
let layout a b instr ~fixed ~flag ~value =
  let reads = Instr.read_count instr in
  fixed a b reads "the number of read registers";
  for i = 0 to reads - 1 do
    fixed a b (Instr.read_reg instr i) "a read register";
    value a b (match i with 0 -> Read0 | 1 -> Read1 | _ -> Read2)
  done;
  let rd = Instr.write_reg instr in
  flag a b (rd >= 0) "the register write";
  if rd >= 0 then begin
    fixed a b rd "the written register";
    value a b Written
  end;
  access a b ~fixed ~flag ~value (read_len instr) "the memory read";
  access a b ~fixed ~flag ~value (write_len instr) "the memory write";
  let branch = Instr.is_branch instr in
  flag a b branch "the branch outcome";
  if branch then value a b Taken;
  value a b Next_pc;
  value a b Effects

let encode_fixed enc _ n _ = Mitos_util.Codec.Enc.uint enc n
let encode_flag enc _ v _ = Mitos_util.Codec.Enc.bool enc v

let encode_value enc r slot =
  let module E = Mitos_util.Codec.Enc in
  match slot with
  | Read0 -> E.uint enc r.read0
  | Read1 -> E.uint enc r.read1
  | Read2 -> E.uint enc r.read2
  | Written -> E.uint enc r.written
  | Addr -> E.uint enc r.mem_addr
  | Taken -> E.bool enc r.taken
  | Next_pc -> E.uint enc r.next_pc
  | Effects -> E.list enc (encode_effect enc) r.sys_effects

(* MITRACE1 spells out the register numbers, presence flags and widths
   a record's instruction implies; [decode_record] checks them. *)
let encode_record enc r =
  let module E = Mitos_util.Codec.Enc in
  E.uint enc r.step;
  E.uint enc r.pc;
  Instr.encode enc r.instr;
  layout enc r r.instr ~fixed:encode_fixed ~flag:encode_flag ~value:encode_value

let disagree pc what =
  raise
    (Mitos_util.Codec.Malformed
       (Printf.sprintf "record at pc %d: %s disagrees with its instruction" pc
          what))

(* The values [decode_record] has read so far, of the record at [c_pc]. *)
type carried = {
  c_pc : int;
  mutable c_read0 : int;
  mutable c_read1 : int;
  mutable c_read2 : int;
  mutable c_written : int;
  mutable c_addr : int;
  mutable c_taken : bool;
  mutable c_next_pc : int;
  mutable c_effects : sys_effect list;
}

let decode_fixed dec c n what =
  if Mitos_util.Codec.Dec.uint dec <> n then disagree c.c_pc what

let decode_flag dec c v what =
  if Mitos_util.Codec.Dec.bool dec <> v then disagree c.c_pc what

let decode_value dec c slot =
  let module D = Mitos_util.Codec.Dec in
  match slot with
  | Read0 -> c.c_read0 <- D.uint dec
  | Read1 -> c.c_read1 <- D.uint dec
  | Read2 -> c.c_read2 <- D.uint dec
  | Written -> c.c_written <- D.uint dec
  | Addr -> c.c_addr <- D.uint dec
  | Taken -> c.c_taken <- D.bool dec
  | Next_pc -> c.c_next_pc <- D.uint dec
  | Effects -> c.c_effects <- D.list dec decode_effect

let decode_record prog dec =
  let module D = Mitos_util.Codec.Dec in
  let step = D.uint dec in
  let pc = D.uint dec in
  let instr =
    if pc >= 0 && pc < Program.length prog then
      Instr.decode_as (Program.instr prog pc) dec
    else Instr.decode dec
  in
  let c =
    {
      c_pc = pc; c_read0 = 0; c_read1 = 0; c_read2 = 0; c_written = 0;
      c_addr = 0; c_taken = false; c_next_pc = 0; c_effects = [];
    }
  in
  layout dec c instr ~fixed:decode_fixed ~flag:decode_flag ~value:decode_value;
  {
    step; pc; instr; read0 = c.c_read0; read1 = c.c_read1; read2 = c.c_read2;
    written = c.c_written; mem_addr = c.c_addr; taken = c.c_taken;
    next_pc = c.c_next_pc; sys_effects = c.c_effects;
  }

(* -- Record plans ------------------------------------------------------------

   Every byte of a record but its values is fixed by its instruction. So
   for each pc, [layout] over the program's own instruction gives the
   bytes a record of it holds between its values: its template, built
   on the pc's first record. A plan compares those bytes up to seven at
   a time and reads only the values. Whatever the plan does not expect
   -- a syscall's effects, a pc outside the program, another
   instruction, a non-canonical fixed field, an overlong varint, a
   record too near the end of the input -- goes to [decode_record],
   which stays the definition and the only code that raises. The plan
   reads ahead of the decoder and moves it only past a record it has
   read, so that record's start is where [decode_record] begins. The
   same plans write records: the template's bytes, then the values. *)

(* The plan of pc [p] is [stride] ints of [ops] from [p * stride]: a
   header, then segments up to the last. The header is 0 until the plan
   is built, -1 for a pc whose records [decode_record] reads, and
   otherwise the most bytes a record reads after its pc, the overreach
   of its last compare included. A segment is up to seven template
   bytes, the first one least significant, their count in bits 56-58,
   and in bits 59-62 what follows them: nothing, the code of a value to
   read, or the record's end. *)
let stride = 16

(* The most bytes the plan's varint reader takes; a longer varint goes
   to [decode_record]. Eight bytes hold any value below 2{^56}. *)
let max_fast_uint = 8

(* The values a plan reads or writes, by code; 0 is no value. *)
let slot_of_code = [| Effects; Read0; Read1; Read2; Written; Addr; Next_pc; Taken |]

let code_of_slot = function
  | Read0 -> 1 | Read1 -> 2 | Read2 -> 3 | Written -> 4 | Addr -> 5
  | Next_pc -> 6 | Taken -> 7
  | Effects -> invalid_arg "Machine.code_of_slot"

let taken_code = 7
let end_code = 8

type plans = {
  prog : Program.t;
  code : Instr.t array;
  ops : int array;
  (* the template being built, and its values: [marks.(0)] of them
     follow, each [(offset lsl 3) lor code] *)
  tpl : Mitos_util.Codec.Enc.t;
  marks : int array;
  (* the record being read: its values by code, and the read offset *)
  vals : int array;
  mutable at : int;
}

(* Fills the plan at [base] from template [t]; leaves its header at -1
   when the segments do not fit in [stride]. *)
let pack ops base t marks =
  let len = String.length t and marked = marks.(0) in
  let i = ref (base + 1) and from = ref 0 and m = ref 1 in
  let need = ref (len + 8) and last = ref false in
  while (not !last) && !i < base + stride do
    let upto = if !m <= marked then marks.(!m) lsr 3 else len in
    let n = min 7 (upto - !from) in
    let bytes = ref 0 in
    for k = n - 1 downto 0 do
      bytes := (!bytes lsl 8) lor Char.code t.[!from + k]
    done;
    from := !from + n;
    let code =
      if !from < upto then 0
      else if !m <= marked then begin
        let code = marks.(!m) land 7 in
        need := !need + (if code = taken_code then 1 else max_fast_uint);
        incr m;
        code
      end
      else begin
        last := true;
        end_code
      end
    in
    ops.(!i) <- (code lsl 59) lor (n lsl 56) lor !bytes;
    incr i
  done;
  if !last then ops.(base) <- !need

(* A value of the template being built: its place and code noted, or,
   for the effects, the empty list a plan expects (a syscall's effects
   go to [decode_record]). *)
let template_value tpl marks slot =
  let module E = Mitos_util.Codec.Enc in
  match slot with
  | Effects -> E.list tpl ignore []
  | slot ->
    let m = marks.(0) + 1 in
    marks.(m) <- (E.length tpl lsl 3) lor code_of_slot slot;
    marks.(0) <- m

let build p pc =
  let module Codec = Mitos_util.Codec in
  let base = pc * stride in
  let own = p.code.(pc) in
  p.ops.(base) <- -1;
  Codec.Enc.reset p.tpl;
  p.marks.(0) <- 0;
  match
    Instr.encode p.tpl own;
    layout p.tpl p.marks own ~fixed:encode_fixed ~flag:encode_flag
      ~value:template_value
  with
  | exception Invalid_argument _ ->
    (* a negative field, which [Codec.Enc.uint] does not write: the
       pc's records go to [decode_record] *)
    ()
  | () ->
    let t = Codec.Enc.contents p.tpl in
    (* a program read from hostile bytes can hold an immediate that
       [Codec.Enc.int] does not write back: the template must read back
       the program's own instruction *)
    if Instr.decode_as own (Codec.Dec.of_string t) == own then
      pack p.ops base t p.marks

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The eight bytes at [pos], the first least significant; the last
   one's top bit is lost, and a compare uses seven bytes at most. *)
let[@inline] word s pos =
  let w = get64u s pos in
  Int64.to_int (if Sys.big_endian then bswap64 w else w)

(* [Codec.Dec.uint] without bounds checks, for up to [max_fast_uint]
   bytes at [pos]: the value, with [p.at] past it; or -1. *)
let rec fast_uint_from p s pos shift acc =
  if shift > 7 * (max_fast_uint - 1) then -1
  else begin
    let b = Char.code (String.unsafe_get s pos) in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b < 0x80 then begin
      p.at <- pos + 1;
      acc
    end
    else fast_uint_from p s (pos + 1) (shift + 7) acc
  end

let[@inline] fast_uint p s pos =
  let b = Char.code (String.unsafe_get s pos) in
  if b < 0x80 then begin
    p.at <- pos + 1;
    b
  end
  else fast_uint_from p s (pos + 1) 7 (b land 0x7F)

(* Runs the segments from [i]; false at the first the bytes do not
   match. *)
let rec run_ops p s ops i =
  let op = Array.unsafe_get ops i in
  let pos = p.at in
  let n = (op lsr 56) land 7 in
  (word s pos lxor op) land ((1 lsl (n lsl 3)) - 1) = 0
  &&
  let pos = pos + n in
  let code = op lsr 59 in
  if code = 0 then begin
    p.at <- pos;
    run_ops p s ops (i + 1)
  end
  else if code < taken_code then begin
    let v = fast_uint p s pos in
    v >= 0
    && begin
      Array.unsafe_set p.vals code v;
      run_ops p s ops (i + 1)
    end
  end
  else if code = taken_code then begin
    let b = Char.code (String.unsafe_get s pos) in
    b <= 1
    && begin
      Array.unsafe_set p.vals code b;
      p.at <- pos + 1;
      run_ops p s ops (i + 1)
    end
  end
  else begin
    p.at <- pos;
    true
  end

let decode_planned p dec =
  let module D = Mitos_util.Codec.Dec in
  let s = D.input dec in
  let start = D.pos dec in
  if String.length s - start < 2 * max_fast_uint then decode_record p.prog dec
  else begin
    let step = fast_uint p s start in
    let pc = if step < 0 then -1 else fast_uint p s p.at in
    if step < 0 || pc < 0 || pc >= Array.length p.code then
      decode_record p.prog dec
    else begin
      let base = pc * stride in
      if Array.unsafe_get p.ops base = 0 then build p pc;
      let need = Array.unsafe_get p.ops base in
      if need < 0 || String.length s - p.at < need then decode_record p.prog dec
      else begin
        let v = p.vals in
        for k = 1 to taken_code do
          Array.unsafe_set v k 0
        done;
        if run_ops p s p.ops (base + 1) then begin
          D.seek dec p.at;
          {
            step; pc; instr = Array.unsafe_get p.code pc;
            read0 = Array.unsafe_get v 1; read1 = Array.unsafe_get v 2;
            read2 = Array.unsafe_get v 3; written = Array.unsafe_get v 4;
            mem_addr = Array.unsafe_get v 5; taken = Array.unsafe_get v 7 = 1;
            next_pc = Array.unsafe_get v 6; sys_effects = [];
          }
        end
        else decode_record p.prog dec
      end
    end
  end

(* [encode_record] through the plan of the record's pc, for a record of
   the program's own instruction with no effects: each segment's
   template bytes, then its value by [encode_value]. The same bytes:
   the template is [layout]'s. *)
let rec write_ops enc r ops i =
  let op = Array.unsafe_get ops i in
  Mitos_util.Codec.Enc.bytes_le enc ((op lsr 56) land 7) op;
  let code = op lsr 59 in
  if code < end_code then begin
    if code > 0 then encode_value enc r (Array.unsafe_get slot_of_code code);
    write_ops enc r ops (i + 1)
  end

let encode_planned p enc (r : exec_record) =
  let pc = r.pc in
  match r.sys_effects with
  | [] when pc >= 0 && pc < Array.length p.code && r.instr == p.code.(pc) ->
    let base = pc * stride in
    if p.ops.(base) = 0 then build p pc;
    if p.ops.(base) < 0 then encode_record enc r
    else begin
      Mitos_util.Codec.Enc.uint enc r.step;
      Mitos_util.Codec.Enc.uint enc pc;
      write_ops enc r p.ops (base + 1)
    end
  | _ -> encode_record enc r

let plans prog =
  let code = Program.code prog in
  {
    prog; code; ops = Array.make (Array.length code * stride) 0;
    tpl = Mitos_util.Codec.Enc.create ~initial_size:64 ();
    marks = Array.make 8 0; vals = Array.make (taken_code + 1) 0; at = 0;
  }

let record_decoder prog = decode_planned (plans prog)
let record_encoder prog = encode_planned (plans prog)
