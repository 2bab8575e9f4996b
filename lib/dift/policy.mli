(** Propagation policies.

    Every time the engine is about to move tags, it builds a
    {!request} and asks the active policy which of the candidate tags
    to write to the destination. Baseline DIFTs and MITOS are all
    instances of this one interface, so the evaluation can swap them
    freely (the paper's FAROS vs. MITOS comparison). *)

open Mitos_tag

(** Which dependency class produced the flow. *)
type flow_kind =
  | Direct_copy  (** copy dependency (mov/load/store data movement) *)
  | Direct_compute  (** computation dependency (ALU results) *)
  | Addr  (** indirect: address dependency *)
  | Ctrl  (** indirect: control dependency (branch scope write) *)
  | Ijump  (** indirect: tainted indirect-jump target *)

val flow_kind_to_string : flow_kind -> string
val is_indirect : flow_kind -> bool

type request = {
  kind : flow_kind;
  candidates : Tag.t list;  (** source tags, oldest first, deduplicated *)
  space : int;  (** free slots in the destination's provenance list *)
  width : int;  (** access width in bytes; 0 when not an access *)
  stats : Tag_stats.t;  (** live copy counts (the control vector [n]) *)
  step : int;  (** machine step, for logging *)
  ctx : Mitos.Decision.ctx;
      (** where the policy's Alg. 1/2 calls send their timing and
          audit records; [Mitos.Decision.no_ctx] outside an
          instrumented engine *)
  scratch : Mitos.Decision.scratch;
      (** the engine's Alg. 2 arrays, reused from one request to the
          next; a policy may overwrite them while it decides this
          request *)
}

type t = {
  name : string;
  select : request -> Tag.t list;
      (** subset of [candidates] to propagate, in insertion order *)
}

val make : name:string -> select:(request -> Tag.t list) -> t
val name : t -> string
val select : t -> request -> Tag.t list
