(** Policy combinators.

    The paper positions MITOS as one point in a space of propagation
    policies ("flexibly adapts to different scenarios and security
    needs"); real deployments mix concerns — a hard safety rail around
    a cost-driven core, different handling per tag type, an audit log.
    These combinators build such stacks from the primitives in
    {!Policies} without touching the engine. *)

open Mitos_tag

val intersect : string -> Policy.t -> Policy.t -> Policy.t
(** [intersect name a b]: propagate a tag only if {e both} policies
    select it — e.g. MITOS further restricted by a Minos-style width
    rail. Selection order follows [a]. *)

val union : string -> Policy.t -> Policy.t -> Policy.t
(** Propagate if {e either} selects it (a's picks first, then b's
    additions) — e.g. a mandatory-propagation allowlist on top of a
    cost-driven core. *)

val per_type : default:Policy.t -> (Tag_type.t * Policy.t) list -> Policy.t
(** Dispatch each candidate to the policy registered for its type
    (falling back to [default]); every sub-policy sees only its own
    candidates. Space is shared: the per-type selections are
    concatenated in candidate order and truncated to the request's
    space. *)

val cap_per_flow : int -> Policy.t -> Policy.t
(** Hard per-flow budget: at most [k] tags of the inner policy's
    selection survive (a DDIFT-style rate limit). *)

val audited : Mitos_obs.Audit.t -> Policy.t -> Policy.t
(** Audit wrapper: appends a [Selection] record (inner policy name,
    flow kind, candidates, chosen) to the flight recorder for every
    consultation, then passes the selection through unchanged. With a
    disabled recorder ([Mitos_obs.Audit.null]) the wrapper only
    forwards. This records the policy-level outcome; the per-tag
    marginal split comes from the request's [Mitos.Decision.ctx] —
    both land in the same log when the engine was instrumented with
    this recorder. *)

val logging :
  (Policy.request -> Tag.t list -> unit) -> Policy.t -> Policy.t
(** Thin adapter over the same spine as {!audited}: invokes the
    callback with every request and the inner policy's selection
    instead of writing a record. *)
