(** Decision flight recorder: a bounded, deterministic audit log of
    every propagation decision the pipeline makes.

    Spans and counters (PR 1) say {e how long} decisioning took;
    the audit log says {e what was decided and why} — per record: the
    flow kind, the candidate tags, each tag's Eq. (8) submarginals
    (the undertainting and overtainting parts whose sum's sign is the
    verdict), the pollution and provenance space the decision saw, and
    the provenance-list evictions that removed taint behind the
    policy's back. Offline analyzers (blame attribution, flow-graph
    export — see [Mitos_experiments]) join this log against ground
    truth to answer "which decision caused this over-/under-tainted
    byte?".

    The recorder follows the {!Obs.disabled} contract: {!null} is the
    shared disabled instance, every recording entry point is a no-op
    on it, and hot-path call sites guard with one [enabled] check (in
    practice a match on the recorder held by the engine or by the
    decision context it builds — see [Mitos.Decision.make_ctx]).
    Records are retained in a bounded
    keep-oldest ring (the retained prefix is deterministic); an
    optional sink additionally receives {e every} record as a JSONL
    line, bounded only by the consumer.

    This library knows nothing about tags: tag identities and
    locations are rendered to strings by the caller, so the recorder
    stays usable from [lib/core] upward without a dependency cycle.

    Determinism: records carry no wall-clock times — ids are a
    per-recorder sequence and steps/pcs come from the replayed trace —
    so the JSONL export is byte-identical across runs and [--jobs]
    degrees for a deterministic workload. *)

type verdict = Propagate | Block

type tag_decision = {
  tag : string;
  under : float;  (** undertainting submarginal, [-u_t n^-alpha] *)
  over : float;  (** overtainting submarginal, [tau beta (P/N_R)^(beta-1) o_t] *)
  marginal : float;  (** the value whose sign decided the verdict *)
  verdict : verdict;
}

type body =
  | Decision of {
      algorithm : string;
          (** "alg1", "alg2" or "alg2-no-recompute" *)
      flow : string;  (** flow kind, as [Policy.flow_kind_to_string] *)
      space : int;  (** free provenance slots at the destination *)
      pollution : float;  (** weighted pollution P the decision saw *)
      tags : tag_decision list;
    }
  | Eviction of {
      at : string;  (** location, "mem:291" / "reg:5" *)
      victim : string;  (** tag removed from the provenance list *)
      incoming : string;  (** tag whose arrival forced the eviction *)
    }
  | Selection of {
      policy : string;
      flow : string;
      candidates : string list;
      chosen : string list;
    }
  | Note of string
      (** free-form marker (e.g. a litmus case boundary) *)

type record = { id : int; step : int; pc : int; body : body }

type t

val null : t
(** The disabled instance: {!enabled} is [false] and every recording
    entry point returns without work. *)

val create : ?capacity:int -> ?sink:(string -> unit) -> unit -> t
(** An enabled recorder. [capacity] bounds the in-memory ring (default
    65536 records, keep-oldest); [sink] receives every record as one
    JSON line (no trailing newline), including records the ring
    drops. Raises [Invalid_argument] on a non-positive capacity. *)

val enabled : t -> bool

val link_tracer : t -> Tracer.t -> unit
(** Cross-link into a span trace: every subsequent record additionally
    emits a tracer instant named ["audit"] carrying the record id and
    kind, so decisions are visible on the Chrome-trace timeline next
    to the spans they occurred under. *)

val set_context : t -> ?step:int -> ?pc:int -> ?flow:string -> unit -> unit
(** Ambient fields stamped onto subsequent {!record_decision} calls.
    The engine sets all three before consulting its policy. Fields
    not passed keep their previous value ([-1] / [""] initially). *)

val record_decision :
  t ->
  algorithm:string ->
  space:int ->
  pollution:float ->
  tag_decision list ->
  unit
(** One Alg. 1/2 invocation: the ranked per-tag verdicts with their
    submarginals. Step, pc and flow come from {!set_context}. *)

val record_eviction :
  t -> ?step:int -> ?pc:int -> at:string -> victim:string -> incoming:string -> unit -> unit
(** A provenance-list eviction ([Provenance.Added_evicting] or the
    least-marginal strategy's explicit removal). *)

val record_selection :
  t ->
  ?step:int ->
  policy:string ->
  flow:string ->
  candidates:string list ->
  chosen:string list ->
  unit ->
  unit
(** A policy-level (request, selection) pair, for a policy that
    audits its own selections rather than its Alg. 1/2 calls. *)

val record_note : t -> string -> unit
(** A free-form marker record (analyzers use these to delimit
    per-case segments of a shared log). *)

val next_id : t -> int
(** The id the next record will receive (ids are assigned even to
    records the ring drops, so [next_id] delimits log segments). *)

val length : t -> int
(** Records retained in the ring. *)

val dropped : t -> int
(** Records dropped by the ring once full (still sent to the sink). *)

val records : t -> record array
(** Retained records, oldest first. *)

val record_to_json : record -> string
(** One record as a single-line JSON object with a fixed field order;
    numbers render via {!Registry.fmt_value} (non-finite values as
    strings), so output is byte-deterministic. *)

val to_jsonl : t -> string
(** Retained records, one JSON object per line. *)
