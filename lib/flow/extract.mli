(** Classification of executed instructions into flow events.

    This is the [is_DFP] / [is_IFP] stage of the paper's architecture
    (Fig. 6): every execution record is mapped to zero or more events
    that the DIFT engine then applies to the shadow state under the
    active propagation policy.

    Direct flows: [Copy] (copy dependencies) and [Compute]
    (computation dependencies) — both replace the destination's
    provenance with the union of the sources'.

    Indirect flows: [Addr_dep] (the address register of a load/store is
    a source for the data moved — the paper's Fig. 4/5), [Branch_point]
    (a conditional branch; if its condition is tainted the engine opens
    a control-dependency scope until the branch's immediate
    post-dominator), and [Indirect_jump].

    Syscall effects map to taint sources/sinks resolved by the OS
    layer. *)

type event =
  | Copy of { srcs : Loc.t list; dsts : Loc.t list }
  | Compute of { srcs : Loc.t list; dsts : Loc.t list }
  | Addr_dep of { addr_srcs : Loc.t list; dsts : Loc.t list }
  | Branch_point of { cond_srcs : Loc.t list; scope_end : int; taken : bool }
  | Indirect_jump of { target_srcs : Loc.t list }
  | Sys_source of { addr : int; len : int; source : int }
  | Sys_sink of { addr : int; len : int; sink : int }
  | Sys_snapshot of { addr : int; len : int; key : int }
  | Sys_clear_reg of int

type t

val create : Mitos_isa.Program.t -> t
(** Precomputes the post-dominator table used for branch scopes. *)

val postdom : t -> Postdom.t

val events_of_record : t -> Mitos_isa.Machine.exec_record -> event list
(** Events are ordered: direct flows first, then indirect, then
    syscall effects — the order the engine must apply them in. *)

val program_writes : Mitos_isa.Machine.exec_record -> Loc.t list
(** The register or memory bytes the instruction itself wrote, without
    its syscall effects, which carry their own taint semantics. *)

val written_locs : Mitos_isa.Machine.exec_record -> Loc.t list
(** All locations the record wrote (register and memory), used to
    apply control-dependency taint to writes inside an open scope. *)

val pp_event : Format.formatter -> event -> unit
