(** A first-order cost model for "MITOS in Hardware" (paper §VI).

    The paper sketches moving the decisioning to a SoC component fed
    from the CPU's commit stage, with tag state in a reserved memory
    segment fronted by dedicated caches. This module quantifies the
    sketch: it takes the {e measured} event counts of a tracked run
    (shadow-list operations, indirect-flow decisions) and per-event
    cost parameters for a software and a hardware implementation, and
    reports the estimated tracking time of each — making explicit
    which term dominates and what the offload can and cannot buy. *)

type costs = {
  ns_per_shadow_op : float;
  ns_per_decision : float;
  ns_per_scope_check : float;  (** control-scope bookkeeping per step *)
}

val software_costs : costs
(** Fixed constants, so the report stays deterministic: a shadow op
    ≈ 0.5 µs including hash lookup, an Alg. 2 decision ≈ 0.45 µs per
    candidate. [bench/perf]'s per-layer rows time the same stages. *)

val hardware_costs : costs
(** The §VI sketch: the marginal evaluation is two fixed-point ops in
    dedicated logic (≈ 2 ns), tag traffic hits a specialized cache
    (≈ 20 ns per list operation). *)

type estimate = {
  label : string;
  shadow_time_ms : float;
  decision_time_ms : float;
  total_ms : float;
}

val estimate :
  label:string -> costs -> Mitos_dift.Metrics.summary -> estimate

val run : unit -> Report.section
