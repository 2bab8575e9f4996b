(** Experiment output assembly: each experiment produces a titled
    section of text and tables that [mitos-cli experiment] prints to
    the console and that can be re-rendered as Markdown. *)

type section

type t

val create : title:string -> t
val text : t -> string -> unit
val textf : t -> ('a, unit, string, unit) format4 -> 'a
val table : t -> Mitos_util.Table.t -> unit
val finish : t -> section

val title : section -> string
val print : section -> unit
val to_markdown : section -> string
