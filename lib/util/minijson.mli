(** A minimal JSON reader.

    The repo has no JSON dependency by design: every exporter renders
    its own deterministic text. The consumers that must {e read} JSON
    back — [mitos-cli bench compare] reading [bench/perf] results and
    [BENCHMARK.json], tests asserting on [/snapshot.json] payloads — go
    through this parser. It accepts standard JSON (RFC 8259 structure;
    numbers via [float_of_string], strings with the escapes our own
    writers emit plus [\uXXXX] for the BMP), plus the [NaN], [+Inf]
    and [-Inf] that {!render_number} writes, and is not streaming:
    inputs are whole small documents. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

exception Parse_error of string
(** Carries a one-line message with the byte offset. *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val parse_result : string -> (t, string) result

(** {1 Access helpers} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val path : string list -> t -> t option
(** Nested {!member}: [path ["a"; "b"] j] is [j.a.b]. *)

val to_float : t -> float option
(** [Num]s only. *)

val to_string_opt : t -> string option
(** [Str]s only. *)

(** {1 Rendering}

    The one canonical writer for consumers that build a document as a
    {!t} (the chaos report, [bench/perf] results). Deterministic:
    2-space indentation, fields in list order, numbers formatted
    exactly as [Registry.fmt_value] does — so a parse → render
    round-trip of our own output is byte-identical. *)

val render : ?indent:int -> t -> string
(** Render without a trailing newline. [indent] is the current left
    margin (default 0); nested structures indent by 2. *)

val render_number : float -> string
(** [NaN]/[+Inf]/[-Inf] spelled out, integers with no fraction,
    everything else [%.9g]. *)

val render_string : string -> string
(** Quoted and escaped (quote, backslash, newline, tab, [\uXXXX] for
    other control bytes). *)
