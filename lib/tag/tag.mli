(** Tag identities — the paper's [{t, i}] pairs.

    A tag is a type plus an integer that differentiates tags of the
    same type (e.g. two network connections get two distinct [Network]
    tags). A {!registry} hands out fresh identifiers per type, as the
    OS layer creates connections, files and processes. *)

type t = { ty : Tag_type.t; id : int }

val make : Tag_type.t -> int -> t
val ty : t -> Tag_type.t
val id : t -> int
val equal : t -> t -> bool

val mem : t -> t list -> bool
(** [mem tag tags]: is a tag {!equal} to [tag] in [tags]? Allocates
    nothing. *)

val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
(** Renders like [network#3]. *)

val to_string : t -> string

val encode : Mitos_util.Codec.Enc.t -> t -> unit
val decode : Mitos_util.Codec.Dec.t -> t

(** Fresh-identifier allocation, one counter per tag type. *)
type registry

val registry : unit -> registry
val fresh : registry -> Tag_type.t -> t
(** Identifiers start at 1 and increase per type. *)

val created : registry -> Tag_type.t -> int
(** How many tags of this type have been handed out. *)

val total_created : registry -> int

(** Hashtable keyed by tags. *)
module Table : Hashtbl.S with type key = t
