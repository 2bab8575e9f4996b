(** The MITOS decisioning rules: Algorithm 1 and Algorithm 2.

    Both are first-order (gradient) criteria over the relaxed cost:
    a tag involved in an indirect flow is propagated iff its marginal
    cost (Eq. 8) is non-positive (Lemma 2). Algorithm 2 generalizes to
    several candidate tags and a destination provenance list with only
    [A] free slots: marginals are computed for every candidate, sorted
    increasingly, and tags are propagated greedily while space remains
    and marginals stay non-positive, updating the pollution estimate
    after each accepted propagation (the paper's line 9). *)

open Mitos_tag

type verdict = Propagate | Block

val verdict_to_string : verdict -> string

(** Inputs to a decision, bundled so policies and experiments can log
    them. [count] is the current [n_{T,I}] lookup; [pollution] the
    (possibly stale, in distributed deployments) weighted pollution
    [P = Σ o_t n_{t,i}]. *)
type env = { count : Tag.t -> int; pollution : float }

val of_stats : Params.t -> Tag_stats.t -> env
(** Exact local environment derived from live statistics. *)

val marginal : Params.t -> env -> Tag.t -> float
(** Eq. (8) for one tag under the environment. *)

val submarginals : Params.t -> env -> Tag.t -> float * float
(** (undertainting, overtainting) parts of Eq. (8) — the series
    plotted in the paper's Fig. 7(a). *)

(** {1 Decision context}

    Decision latency is the paper's O(1)-per-decision systems claim
    (§IV-B), and the audit records carry the Eq. (8) under/over split
    behind each verdict (Fig. 7(a)). A context routes both to the run
    that asked for them: an engine builds one in [Engine.instrument]
    and hands it to its policy in every request, so two instrumented
    engines on a domain pool each count and record their own
    decisions. *)

type ctx
(** Histogram handles, resolved once, and an optional flight
    recorder. *)

val no_ctx : ctx
(** Neither timing nor auditing: a decision under it tests two fields
    and builds no timing closure. The default of every [?ctx]. *)

val observed : ctx -> bool
(** Whether decisions under the context are timed or audited; [false]
    for {!no_ctx}. An empty batch under a context that is not observed
    decides nothing and leaves no trace, so a caller may skip it. *)

val make_ctx : ?obs:Mitos_obs.Obs.t -> ?audit:Mitos_obs.Audit.t -> unit -> ctx
(** With a live [obs], Alg. 2 latencies ({!decide}, {!alg2},
    {!alg2_no_recompute}; clock ticks) land in its
    [mitos_alg2_latency_ticks] histogram, and Alg. 2 batch sizes in
    [mitos_alg2_candidates]. Alg. 1 is not timed: no library path
    calls it. With a live [audit], each of those calls and {!alg1}
    appends one [Decision] record: algorithm name, the ambient flow
    context (see [Mitos_obs.Audit.set_context]), the space and
    pollution the decision saw, and per candidate the {!submarginals}
    split, decision-time marginal and verdict. A disabled [obs] or
    [audit] counts as absent; with neither live the result behaves as
    {!no_ctx}.

    The histograms are the registry's and take concurrent updates; the
    recorder is not synchronized, so a context with one belongs to one
    domain at a time. *)

val alg1 : ?ctx:ctx -> Params.t -> env -> Tag.t -> verdict
(** Algorithm 1: single tag, sufficient space. *)

(** {1 The Alg. 2 core}

    Alg. 2 runs over a caller-owned scratch: the batch's tags with
    their undertainting submarginals go in, and the ranked verdicts
    and decision-time marginals come out, in arrays reused from one
    batch to the next. A decision over a scratch allocates nothing
    under {!no_ctx} once the scratch has grown to the batch size. A
    scratch belongs to one caller at a time: an engine owns one and
    hands it to its policy in every request. *)

type scratch

val scratch : unit -> scratch
(** An empty scratch; it grows to the largest batch it is given. *)

val reset : scratch -> unit
(** Starts a new batch. *)

val add : scratch -> Params.t -> Tag.t -> count:int -> unit
(** Appends a candidate with its copy count [n_{T,I}]. *)

val decide :
  ctx ->
  Params.t ->
  recompute:bool ->
  pollution:float ->
  space:int ->
  scratch ->
  unit
(** Alg. 2 over the batch, as {!alg2} ([recompute]) or
    {!alg2_no_recompute} (not), with the same verdicts, marginals,
    histogram observations and audit records. An empty batch returns
    at once; a single candidate with [space >= 1] gets Alg. 1's sign
    test. Raises [Invalid_argument] on a negative [space]. *)

val length : scratch -> int
(** Candidates in the batch. *)

val nth_tag : scratch -> int -> Tag.t
(** The [k]-th candidate considered (increasing initial marginal). *)

val nth_under : scratch -> int -> float
(** Its undertainting submarginal. *)

val nth_marginal : scratch -> int -> float
(** Its marginal at decision time, as {!ranked} reports it. *)

val nth_propagated : scratch -> int -> bool
(** Whether it was accepted. *)

val accepted : scratch -> Tag.t list
(** The accepted candidates, in the order considered. *)

(** {1 List entry points}

    Wrappers over the core, each with a scratch of its own. *)

(** One per-tag outcome of an Algorithm 2 pass. *)
type ranked = {
  tag : Tag.t;
  marginal : float;  (** marginal at decision time (after updates) *)
  verdict : verdict;
}

val alg2 :
  ?ctx:ctx -> Params.t -> env -> space:int -> Tag.t list -> ranked list
(** Algorithm 2: returns one entry per candidate, in the order they
    were considered (increasing initial marginal). At most [space]
    entries carry [Propagate]. The pollution term is re-evaluated
    after each accepted propagation, as in the paper's line 9; the
    initial sort order is preserved because the overtainting
    submarginal shifts all remaining candidates of equal [o_t]
    equally (and candidates are re-ranked lazily otherwise). *)

val alg2_accepted : Params.t -> env -> space:int -> Tag.t list -> Tag.t list
(** Just the tags to propagate, in acceptance order. *)

val alg2_no_recompute :
  ?ctx:ctx -> Params.t -> env -> space:int -> Tag.t list -> ranked list
(** Ablation: Algorithm 2 with line 9 disabled — marginals are
    evaluated once against the initial pollution. *)

val alg2_paper : Params.t -> env -> space:int -> Tag.t list -> ranked list
(** The literal transcription of the paper's Algorithm 2: the while
    loop stops at the {e first} candidate whose (recomputed) marginal
    is positive, blocking everything ranked after it. With homogeneous
    pollution weights this coincides with {!alg2} (the recomputation
    shifts all remaining candidates equally, preserving the order);
    with heterogeneous [o_t] the early break can block a later
    candidate that {!alg2} would still accept. *)
