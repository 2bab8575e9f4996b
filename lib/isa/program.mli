(** Assembled programs: an array of instructions with resolved targets
    and the label map kept for diagnostics. *)

type t

val make : ?labels:(string * int) list -> Instr.t array -> t
(** Validates that every branch/jump target is a legal instruction
    index; raises [Invalid_argument] otherwise. *)

val code : t -> Instr.t array
val length : t -> int
val instr : t -> int -> Instr.t
val label_addr : t -> string -> int
(** Raises [Not_found] for unknown labels. *)

val labels : t -> (string * int) list
val pp : Format.formatter -> t -> unit
(** Disassembly listing with labels. *)

val encode : Mitos_util.Codec.Enc.t -> t -> unit
val decode : Mitos_util.Codec.Dec.t -> t
(** Raises [Mitos_util.Codec.Malformed] on corrupt input, a target out
    of range included. *)
