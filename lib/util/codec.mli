(** Compact binary serialization used by the trace recorder.

    Values are written with LEB128-style varints (zigzag for signed
    ints), so traces of mostly-small integers stay small. Decoding
    raises [Malformed] on truncated or corrupt input. *)

exception Malformed of string

val length_prefixed : string -> string
(** [length_prefixed s] is [s] behind its length as a varint — the
    bytes {!Enc.string} writes — built in one allocation. *)

(** Encoder: appends to an internal buffer. *)
module Enc : sig
  type t

  val create : ?initial_size:int -> unit -> t
  val uint : t -> int -> unit
  (** Non-negative varint; raises [Invalid_argument] on negatives. *)

  val int : t -> int -> unit
  (** Zigzag-encoded signed varint. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val option : t -> ('a -> unit) -> 'a option -> unit
  (** [option t f v] writes a presence bit then [f] on the payload. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  val array : t -> ('a -> unit) -> 'a array -> unit
  val contents : t -> string
  val length : t -> int
end

(** Decoder: consumes a string left to right. *)
module Dec : sig
  type t

  val of_string : string -> t
  val uint : t -> int
  val int : t -> int
  val bool : t -> bool
  val float : t -> float
  (** Eight little-endian bytes, bit for bit. *)

  val string : t -> string
  (** Raises [Malformed] if the length is negative or overruns the
      input. *)

  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  (** Raises [Malformed], before allocating, on a count larger than
      the bytes left: every element takes at least one byte. *)

  val pos : t -> int
  (** Current read offset in bytes — where decoding stands (or where
      it failed, when reading raised [Malformed]). *)

  val at_end : t -> bool
  val expect_end : t -> unit
  (** Raises [Malformed] if bytes remain. *)
end
