(** The instruction set of the tracked virtual machine.

    A deliberately small RISC-style ISA: it is the minimum needed to
    exhibit every flow class the paper cares about —

    - copy dependencies ([Mov], loads, stores),
    - computation dependencies (ALU ops),
    - address dependencies (loads/stores whose address register is
      tainted, the paper's Fig. 4/5),
    - control dependencies (conditional branches on tainted values,
      indirect jumps through tainted registers).

    Registers are numbered [0 .. num_regs-1]; values are 32-bit
    (stored in OCaml ints, masked). Branch/jump targets are absolute
    instruction indices (the assembler resolves labels). *)

val num_regs : int
(** 16. *)

val word_size : int
(** 4 bytes. *)

type binop = Add | Sub | Mul | Divu | Rem | And | Or | Xor | Shl | Shr

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type width = W8  (** byte *) | W32  (** 32-bit word *)

type t =
  | Li of int * int  (** [Li (rd, imm)]: rd <- imm *)
  | Mov of int * int  (** [Mov (rd, rs)]: rd <- rs (copy dependency) *)
  | Bin of binop * int * int * int
      (** [Bin (op, rd, rs1, rs2)]: rd <- rs1 op rs2 (computation) *)
  | Bini of binop * int * int * int
      (** [Bini (op, rd, rs, imm)]: rd <- rs op imm *)
  | Load of width * int * int * int
      (** [Load (w, rd, rbase, off)]: rd <- mem\[rbase+off\] — an
          address dependency when rbase is tainted *)
  | Store of width * int * int * int
      (** [Store (w, rs, rbase, off)]: mem\[rbase+off\] <- rs *)
  | Branch of cond * int * int * int
      (** [Branch (c, rs1, rs2, target)]: if rs1 c rs2 then pc <-
          target — a control dependency when rs1/rs2 are tainted *)
  | Jmp of int  (** unconditional jump to instruction index *)
  | Jr of int  (** [Jr rs]: pc <- rs (indirect jump) *)
  | Syscall of int  (** OS service; arguments by register convention *)
  | Nop
  | Halt

val bytes_of_width : width -> int

val equal : t -> t -> bool
(** Structural equality. *)

val reads : t -> int list
(** Registers read, in operand order (address registers included). *)

val writes : t -> int option
(** Register written, if any. *)

(** Allocation-free views of [reads] and [writes] for per-record code. *)

val read_count : t -> int
(** [List.length (reads t)]: at most 3. *)

val read_reg : t -> int -> int
(** [read_reg t i] is [List.nth (reads t) i]; raises [Invalid_argument]
    past the end. *)

val write_reg : t -> int
(** The register [writes t] names, or [-1] if none. *)

val is_branch : t -> bool
(** Conditional branches only. *)

val is_control : t -> bool
(** Anything that can divert the pc: branches, jumps, halt. *)

val branch_targets : t -> next:int -> int list
(** Possible successors of this instruction at index [i] given
    fall-through index [next]. [Jr] yields [] (unknown — handled
    conservatively by the CFG); [Halt] yields []. *)

val binop_to_string : binop -> string
val cond_to_string : cond -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encode : Mitos_util.Codec.Enc.t -> t -> unit
val decode : Mitos_util.Codec.Dec.t -> t

val decode_as : t -> Mitos_util.Codec.Dec.t -> t
(** [decode_as own dec] reads what {!decode} reads, with the same
    errors, and returns [own] itself when the encoded instruction
    equals it: a record of a known program builds no instruction. *)
