(** The virtual machine that executes programs and reports, for each
    step, exactly what happened — the raw material from which the flow
    extractor classifies direct and indirect dependencies.

    The machine itself knows nothing about taint. Syscalls are
    delegated to a pluggable handler (the mini-OS lives in
    [mitos_system]); the handler's side effects on memory and registers
    are described in the step record so the DIFT layer can account for
    them. *)

exception Fault of string
(** Raised on out-of-range memory access, division by zero, or an
    indirect jump outside the program. *)

(** A memory- or register-level side effect performed by a syscall
    handler. [source] is an opaque identifier the OS layer uses to map
    the effect to a taint source (e.g. a connection id); [-1] means "no
    taint source" (the DIFT layer just clears the range). *)
type sys_effect =
  | Sys_wrote_mem of { addr : int; len : int; source : int }
  | Sys_read_mem of { addr : int; len : int; sink : int }
  | Sys_snapshot_mem of { addr : int; len : int; key : int }
      (** capture the range's shadow state under [key] (e.g. a file's
          content taint at write time), restorable by a later
          [Restore] source action *)
  | Sys_set_reg of { reg : int }
  | Sys_halt

(** Everything observable about one executed instruction.

    Besides [instr] and [sys_effects], every field is an immediate int
    or bool: a record is one block, whatever the instruction. What the
    instruction determines is not stored — register numbers, whether a
    register or memory is written, access widths — so a field the
    instruction gives no meaning holds 0 (or [false]). The accessors
    below rebuild the paired views. *)
type exec_record = {
  step : int;  (** 0-based execution step *)
  pc : int;  (** index of the executed instruction *)
  instr : Instr.t;
  read0 : int;  (** value of the 1st register [Instr.reads instr] names *)
  read1 : int;  (** value of the 2nd *)
  read2 : int;  (** value of the 3rd (a [Syscall]'s r3) *)
  written : int;
      (** new value of the register [Instr.writes instr] names *)
  mem_addr : int;  (** address a [Load] reads or a [Store] writes *)
  taken : bool;  (** a conditional branch's outcome *)
  next_pc : int;
  sys_effects : sys_effect list;  (** non-empty only for [Syscall] *)
}

(** The paired views of a record, allocated on each call: for code off
    the per-record path. *)

val reg_reads : exec_record -> (int * int) list
(** (register, value) pairs read, in [Instr.reads] order. *)

val reg_write : exec_record -> (int * int) option
(** (register, new value) *)

val mem_read : exec_record -> (int * int) option
(** (address, length) of a [Load] *)

val mem_write : exec_record -> (int * int) option
(** (address, length) of a [Store] *)

val taken : exec_record -> bool option
(** The outcome of a conditional branch. *)

type t

type syscall_handler = t -> sysno:int -> sys_effect list
(** Called when a [Syscall] executes. The handler may read/write
    machine state through the accessors below and must describe its
    memory/register effects in the returned list. *)

val create :
  ?mem_size:int -> ?syscall:syscall_handler -> Program.t -> t
(** Default memory is 1 MiB; the default syscall handler faults. *)

val program : t -> Program.t
val mem_size : t -> int
val pc : t -> int
val steps : t -> int
val halted : t -> bool

val get_reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
val read_bytes : t -> int -> int -> Bytes.t
val write_bytes : t -> int -> Bytes.t -> unit
val blit_string : t -> int -> string -> unit

val step : t -> exec_record option
(** Execute one instruction; [None] once halted. *)

val run : ?max_steps:int -> t -> (exec_record -> unit) -> int
(** Drive to completion (or [max_steps], default 10_000_000), feeding
    every record to the callback; returns the number of steps
    executed. *)

val pp_record : Format.formatter -> exec_record -> unit

val encode_record : Mitos_util.Codec.Enc.t -> exec_record -> unit
(** Writes the MITRACE1 layout, which spells out every register
    number, presence flag and access width the instruction implies. *)

val record_encoder : Program.t -> Mitos_util.Codec.Enc.t -> exec_record -> unit
(** [record_encoder prog] writes records of a trace of [prog] as
    {!encode_record} does, byte for byte. A record of the program's own
    instruction (physically) with no syscall effects is written through
    the plan of its pc that {!record_decoder} reads with: the template
    bytes and the values between them. Apply it once per trace. *)

val decode_record : Program.t -> Mitos_util.Codec.Dec.t -> exec_record
(** [decode_record prog dec] reads one record of a trace of [prog]: the
    definition of what a record's bytes mean. An instruction equal to
    [prog]'s own at the record's [pc] is returned as that very value,
    so a decoded trace shares its program's instructions instead of
    holding a copy per record: the encoded fields are compared with it
    as they are read, and no instruction is built unless they differ.

    Raises [Mitos_util.Codec.Malformed] on a record whose register
    numbers, presence flags or access widths disagree with its own
    instruction (a load with no memory read, a branch with no
    outcome, ...): no consumer has to handle such a record. *)

val record_decoder : Program.t -> Mitos_util.Codec.Dec.t -> exec_record
(** [record_decoder prog] reads records of a trace of [prog] as
    {!decode_record} does: the same record, with the program's own
    instruction, or the same [Malformed] at the same [Dec.pos]. It
    keeps a plan per pc, built on the pc's first record from the one
    layout both codecs use: the bytes the program's instruction fixes,
    compared up to seven at a time, and the values between them. A
    record the plan does not expect (a syscall's effects, a pc outside
    the program, another instruction, a long varint or a non-canonical
    fixed field, one near the end of the input) is read by
    {!decode_record} from its start. Apply it once per trace: the
    plans take O(program) words, and a record read through them
    allocates only itself. *)
