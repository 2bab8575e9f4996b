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
    was. Nothing is derived from a [t] ahead of a decision, so a
    caller that moves τ (the adaptive controller) just decides under
    the new value. *)

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
}

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
