(** MITOS model inputs (the starred rows of the paper's Table I).

    - [alpha]: fairness degree of the undertainting cost (α ≥ 0;
      α → ∞ approaches max-min fair tag balancing; α = 1 is the
      logarithmic limit).
    - [beta]: steepness of the overtainting cost (the paper keeps
      β ≥ 2 so the penalty is at least quadratic and twice
      differentiable).
    - [tau]: weight of the over- vs. under-tainting trade-off. τ = 0
      disables the overtainting cost (everything propagates).
    - [tau_scale]: the paper normalizes "all τ values up to the power
      of 10⁶" because the pollution fraction P/N_R is minuscule; the
      evaluation's τ ∈ {1, 0.1, 0.01} only bites after that scaling.
      Our default is 10⁴, matching our smaller simulated memories
      (N_R ≈ 10⁷ rather than 4·10¹⁰) so that the same τ values land in
      the same operating regime as the paper's.
    - [u]: per-tag-type undertainting weights (importance).
    - [o]: per-tag-type pollution weights.
    - [total_tag_space]: N_R = R·M_prov.
    - [mem_capacity]: R, the per-tag copy cap of constraint Eq. (7).

    The paper's defaults (§V): α = 1.5, β = 2, τ = 1, u_t = o_t = 1.

    The [with_*] setters return a new [t] and leave the old one as it
    was, so a caller that moves τ (the adaptive controller) just
    decides under the new value.

    {b Eq. (8) constants.} A [t] also carries the two parts of
    Eq. (8) that depend on the parameters alone, so that an Alg. 2
    candidate costs a table read instead of a libm [pow]:

    - [pow_neg_alpha.(n)] is [float_of_int n ** -.alpha] for every
      count [n] below {!pow_table_size} (1,024; on the
      mitos-all-flows replay 59% of counts are below 16 and 40% in
      256–1023). It is filled by the very expression
      {!Cost.under_submarginal} evaluates, so [-.(u_t *. table.(n))]
      has that function's bits; [Decision.add] falls back to [**]
      at 1,024 and above. The 8 KB table is made once per α: a
      setter that keeps α shares it with the old [t].
    - [over_scale] is [tau *. tau_scale *. beta], multiplied in the
      order {!Cost.over_factor} writes it, so g(P) keeps its bits.

    A [t] is immutable, so both are safe to share across domains.
    There is no cache and no second evaluation path: every caller
    reads the same table. *)

open Mitos_tag

type t = private {
  alpha : float;
  beta : float;
  tau : float;
  tau_scale : float;
  u : float array;  (** indexed by [Tag_type.to_int] *)
  o : float array;
  total_tag_space : int;  (** N_R *)
  mem_capacity : int;  (** R *)
  pow_neg_alpha : float array;
      (** [float_of_int n ** -.alpha] at index [n], for [n] below
          {!pow_table_size} *)
  over_scale : float;  (** [tau *. tau_scale *. beta] *)
}

val pow_table_size : int
(** 1,024: the length of [pow_neg_alpha]. *)

val make :
  ?alpha:float ->
  ?beta:float ->
  ?tau:float ->
  ?tau_scale:float ->
  ?u:(Tag_type.t * float) list ->
  ?o:(Tag_type.t * float) list ->
  total_tag_space:int ->
  mem_capacity:int ->
  unit ->
  t
(** Unlisted tag types get weight 1. Raises [Invalid_argument] on
    invalid inputs (see {!validate}). *)

val default : total_tag_space:int -> mem_capacity:int -> t
(** The paper's evaluation defaults. *)

val of_shadow_dims : m_prov:int -> mem_capacity:int -> num_regs:int -> t
(** Defaults sized for a shadow memory with the given dimensions. *)

val u : t -> Tag_type.t -> float
val o : t -> Tag_type.t -> float

val with_alpha : t -> float -> t
val with_beta : t -> float -> t
val with_tau : t -> float -> t
val with_tau_scale : t -> float -> t
val with_u : t -> Tag_type.t -> float -> t
val with_o : t -> Tag_type.t -> float -> t

val tau_effective : t -> float
(** [tau *. tau_scale]. *)

val validate :
  alpha:float -> beta:float -> tau:float -> tau_scale:float ->
  u:float array -> o:float array -> total_tag_space:int ->
  mem_capacity:int -> (unit, string) result
(** Requires α > 0, β ≥ 1, τ ≥ 0, positive scale/space/capacity and
    positive weights. An error starts with the field it refuses
    ("tau must be >= 0 (got -1)", "u weight of network must be > 0
    (got -1)"), so a caller can report it under its own name for that
    field. *)

val pp : Format.formatter -> t -> unit
