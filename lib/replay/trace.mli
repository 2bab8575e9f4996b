(** Execution traces: the record/replay substrate.

    The paper's methodology records a system run once (PANDA) and
    replays it under different MITOS parameterizations. A trace
    captures the program, machine geometry and the full sequence of
    execution records; replaying feeds the records to any consumer
    (typically [Engine.process_record]) without re-executing the
    machine, so every policy sees the identical instruction stream. *)

type t

val make :
  ?meta:(string * string) list ->
  program:Mitos_isa.Program.t ->
  mem_size:int ->
  Mitos_isa.Machine.exec_record array ->
  t

val program : t -> Mitos_isa.Program.t
val mem_size : t -> int
val records : t -> Mitos_isa.Machine.exec_record array
val length : t -> int
val meta : t -> (string * string) list
val find_meta : t -> string -> string option

val add_meta : t -> string -> string -> t
(** Functional update; replaces an existing binding of the key. *)

val iter : t -> (Mitos_isa.Machine.exec_record -> unit) -> unit

val to_string : t -> string
(** Compact binary serialization: MITRACE1, with records written
    through {!Mitos_isa.Machine.record_encoder}. *)

val of_string : string -> t
(** Reads records through {!Mitos_isa.Machine.record_decoder}, so each
    holds its program's own instruction. Raises
    [Mitos_util.Codec.Malformed] on corrupt input, with the message
    {!Mitos_isa.Machine.decode_record} gives. *)

val save : t -> string -> unit
(** Write to a file path. *)

val load : string -> t
