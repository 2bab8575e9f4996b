(** The MITOS cost function (paper §IV-A).

    Total cost (Eq. 2):
    [c(n) = c_under(n) + tau · c_over(n)] with

    - undertainting, α-fair (Eq. 3):
      [c_under(n) = Σ_t u_t Σ_i n_{t,i}^(1-α) / (α-1)]
      (the [log] limit at α = 1);
    - overtainting, β-steep (Eq. 4):
      [c_over(n) = (Σ_t o_t Σ_i n_{t,i} / N_R)^β].

    Normalization: because P/N_R is minuscule, the paper scales τ by
    10⁶ in the evaluation. We fold that into
    [tau_eff = tau · tau_scale] and additionally express the
    overtainting cost as [tau_eff · N_R · (P/N_R)^β] so that its
    derivative with respect to one more copy is exactly the paper's
    Eq. (8) over-submarginal [tau_eff · β · (P/N_R)^(β-1)] (times
    [o_t], which Eq. (8) leaves implicit because the evaluation uses
    o_t = 1). All functions take the relaxed, real-valued [n].

    Eq. (8) has this one body: every decision caller evaluates it
    through {!Decision}, as {!under_submarginal} plus
    [{!over_factor} *. o_t], with no precomputed tables. *)

open Mitos_tag

val phi : alpha:float -> float -> float
(** [phi ~alpha n] is the per-tag undertainting kernel
    [n^(1-alpha)/(alpha-1)], or [-log n] at α = 1; [infinity] at
    [n <= 0] for α > 1 (and [neg_infinity]... see below: at n = 0 the
    kernel diverges in the direction that makes propagation free). *)

val under_tag : Params.t -> Tag_type.t -> float -> float
(** [u_t · phi(n)] — one tag's contribution to the undertainting
    cost. *)

val under_total : Params.t -> Tag_stats.t -> float
(** Sum over all live tags (Eq. 3). *)

val weighted_pollution : Params.t -> Tag_stats.t -> float
(** [P = Σ_t o_t Σ_i n_{t,i}]. *)

val over_of_pollution : Params.t -> float -> float
(** [over_of_pollution p P] = [tau_eff · N_R · (P/N_R)^β]. Includes
    the τ weighting. *)

val over_total : Params.t -> Tag_stats.t -> float

val total : Params.t -> Tag_stats.t -> float
(** Eq. (2). *)

val under_submarginal : Params.t -> Tag_type.t -> n:float -> float
(** [-u_t · n^(-α)] — the (negative) undertainting part of Eq. (8).
    At [n = 0] this is [neg_infinity]: the first copy of a tag is
    always worth propagating. *)

val over_submarginal : Params.t -> Tag_type.t -> pollution:float -> float
(** [tau_eff · β · (P/N_R)^(β-1) · o_t] — the (non-negative)
    overtainting part of Eq. (8). *)

val marginal : Params.t -> Tag_type.t -> n:float -> pollution:float -> float
(** Eq. (8): [under_submarginal + over_submarginal] — the marginal
    cost of giving this tag one more copy. *)

val over_factor : Params.t -> float -> float
(** [over_factor p P] is [g(P) = tau_eff · β · (max 0 P/N_R)^(β-1)],
    the part of {!over_submarginal} that depends on the pollution:
    [over_factor p P *. o_t] equals [over_submarginal p t ~pollution:P]
    bit for bit. *)
