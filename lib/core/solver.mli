(** Offline solvers for the relaxed Problem 1 (paper §IV-B).

    The online rule (Alg. 1/2) is a distributed gradient method; these
    solvers compute reference solutions of the *static* problem — a
    fixed population of tags with per-type weights — so that tests and
    ablations can check how close the online rule lands:

    minimize [Σ_j u_j φ_α(n_j) + tau_eff · N_R · (P/N_R)^β],
    [P = Σ_j o_j n_j], subject to [Σ_j n_j ≤ N_R] (Eq. 6) and
    [0 ≤ n_j ≤ R] (Eq. 7).

    - {!solve_kkt}: stationarity + bisection (fast, exact for the
      relaxed convex problem);
    - {!solve_gradient}: projected gradient descent (slow, used to
      cross-check KKT);
    - {!solve_greedy_integer}: the +1-at-a-time greedy the online
      Alg. 2 implements, run to convergence;
    - {!solve_brute_force}: exhaustive integer search for tiny
      instances (the NP-hard Problem 1 itself).
*)

open Mitos_tag

(** One tag population entry. *)
type item = { ty : Tag_type.t; cap : int  (** per-tag cap; usually R *) }

val item : ?cap:int -> Params.t -> Tag_type.t -> item
(** Defaults the cap to the params' [mem_capacity]. *)

val objective : Params.t -> item array -> float array -> float
(** Relaxed objective value at the point [n]. *)

val gradient : Params.t -> item array -> float array -> float array

val solve_kkt : Params.t -> item array -> float array
(** Optimal relaxed allocation. The stationarity condition
    [u_j n_j^(-α) = g(P)·o_j + λ] with
    [g(P) = tau_eff·β·(P/N_R)^(β-1)] gives
    [n_j = (u_j / (g·o_j + λ))^(1/α)] clamped to [\[0, cap\]]; [P] is
    found by bisection (the map is monotone) and [λ ≥ 0] by an outer
    bisection when Eq. (6) binds. *)

val solve_gradient :
  ?iterations:int -> ?step:float -> Params.t -> item array -> float array

val solve_greedy_integer :
  ?max_total:int -> Params.t -> item array -> int array
(** Repeatedly grant +1 to the item with the most negative marginal
    until no marginal is negative or capacity runs out. *)

val solve_brute_force : max_n:int -> Params.t -> item array -> int array
(** Exhaustive search over [{0..max_n}^k]; raises [Invalid_argument]
    if the search space exceeds ~10⁷ points. *)

(** {1 Exact integer solver}

    Problem 1 itself — the NP-hard integer program — solved by branch
    and bound: variables are fixed one at a time, and each subtree is
    bounded below by the KKT optimum of its continuous relaxation
    (valid because relaxing can only decrease the optimum). Practical
    for the tag-population sizes a decision point actually sees. *)

type bb_stats = {
  nodes_explored : int;
  nodes_pruned : int;
  optimum : float;
}

val solve_branch_and_bound :
  ?node_limit:int -> Params.t -> item array -> int array * bb_stats
(** Exact integer optimum (to the relaxation-guided search's
    precision). [node_limit] (default 200_000) bounds the search;
    raises [Invalid_argument] if exceeded — the NP-hardness showing
    up. *)
