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

val alg1 : Params.t -> env -> Tag.t -> verdict
(** Algorithm 1: single tag, sufficient space. *)

(** One per-tag outcome of an Algorithm 2 pass. *)
type ranked = {
  tag : Tag.t;
  marginal : float;  (** marginal at decision time (after updates) *)
  verdict : verdict;
}

val alg2 : Params.t -> env -> space:int -> Tag.t list -> ranked list
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
  Params.t -> env -> space:int -> Tag.t list -> ranked list
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

(** {1 Profiling hooks}

    Decision latency is the paper's O(1)-per-decision systems claim
    (§IV-B); the probe lets a run validate it continuously. *)

val set_obs : Mitos_obs.Obs.t option -> unit
(** Route per-decision timing into an observability context: {!alg1}
    and {!alg2}/{!alg2_no_recompute} latencies (clock ticks) land in
    the [mitos_alg1_latency_ticks] / [mitos_alg2_latency_ticks]
    histograms, and Alg. 2 batch sizes in [mitos_alg2_candidates].

    The probe is module-global (decisions are made deep inside
    policies, far from where the context is created); [None] — the
    default — restores the zero-cost path. Passing a disabled context
    is equivalent to [None]. Interleaving two instrumented runs
    mingles their decision metrics; set and clear around a run.

    The probe cell is an [Atomic]: engines running on a domain pool
    all observe a [set_obs] from any domain safely. Concurrent
    instrumented engines share the same histograms, so counts may
    lose increments under contention — acceptable for sampling
    metrics; set the probe around sequential runs when exact counts
    matter. *)

val set_audit : Mitos_obs.Audit.t option -> unit
(** Route every decision into an audit flight recorder: {!alg1},
    {!alg2} and {!alg2_no_recompute} each append one [Decision]
    record — algorithm name, the ambient flow context (see
    [Mitos_obs.Audit.set_context]), the space and pollution the
    decision saw, and per candidate the {!submarginals} split,
    decision-time marginal and verdict.

    Same contract and caveats as {!set_obs}: module-global [Atomic]
    cell, [None]/disabled recorder restores the one-atomic-load
    disabled path, and the recorder itself is not synchronized — set
    it around a sequential run, not across a domain pool. *)

val audit : unit -> Mitos_obs.Audit.t option
(** The currently installed recorder, if any — policies use this to
    stamp flow context onto the shared recorder before deciding. *)
