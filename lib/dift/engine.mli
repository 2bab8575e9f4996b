(** The DIFT engine.

    Drives a {!Mitos_isa.Machine} (or a recorded trace), classifies
    each executed instruction with {!Mitos_flow.Extract}, maintains the
    shadow state and the control-dependency scopes, and consults the
    active {!Policy} for every tag movement. This is the FAROS-plus-
    MITOS pipeline of the paper's Fig. 6 (steps 3-5): direct flows,
    then [is_IFP] filtering, then Alg. 2 on the indirect flows.

    Taint sources: syscall write effects are resolved to tags by the
    [source_tag] callback (implemented by the OS layer). *)

open Mitos_tag

(** How a source effect taints the written range. *)
type source_action =
  | Taint of Tag.t * [ `Replace | `Union ]
      (** [`Replace]: fresh data overwrites the range (a network read);
          [`Union]: the range is additionally marked (the kernel
          marking a region as export-table). *)
  | Clear  (** untainted fresh data *)
  | Copy_within of { src : int; extra : Tag.t option }
      (** the OS copied the range from [src] within the same memory
          (a cross-process read): existing provenance travels with the
          data and [extra] (e.g. the source process's tag) is appended
          — the accumulation of the paper's Fig. 2 *)
  | Restore of { key : int; extra : Tag.t option }
      (** the OS materialized content captured earlier by a
          [Sys_snapshot_mem] effect (a file read-back): the stored
          content's taint is restored and [extra] (the file's tag)
          appended; with no snapshot under [key] only [extra]
          applies *)

type config = {
  m_prov : int;  (** provenance list bound M_prov *)
  eviction : Shadow.eviction_strategy;
  track_ctrl : bool;  (** consider control dependencies at all *)
  ijump_scope_len : int;
      (** instruction budget of the scope opened by a tainted indirect
          jump (targets are statically unknown; see DESIGN.md) *)
  route_direct_through_policy : bool;
      (** consult the policy on direct flows too (Table II's MITOS
          configuration); [false] = classic DIFT direct handling *)
  shadow_backend : Shadow.backend;
      (** hashed (sparse) or paged; the hashed store takes its
          sub-table count from {!Shadow.default_shards}, the
          process-wide [--shards] knob *)
}

val default_config : config

(** Aggregate counters, updated as the engine runs. *)
type counters = {
  mutable steps : int;
  mutable direct_events : int;
  mutable indirect_events : int;  (** IFP opportunities encountered *)
  mutable dfp_propagated : int;  (** tags written by direct flows *)
  mutable ifp_propagated : int;
  mutable ifp_blocked : int;
  mutable ctrl_scopes_opened : int;
  mutable source_bytes : int;  (** bytes tainted at sources *)
  mutable sink_tainted_bytes : int;  (** tainted bytes leaving via sinks *)
  mutable shadow_ops : int;
      (** provenance-list writes — the spatiotemporal cost proxy *)
  mutable evictions : int;
      (** provenance-list evictions — taint silently dropped by the
          M_prov bound (always counted, audited or not) *)
  per_type_propagated : int array;  (** per [Tag_type.to_int], IFP only *)
  per_type_blocked : int array;
}

type t

val create :
  ?config:config ->
  policy:Policy.t ->
  source_tag:(source:int -> source_action) ->
  Mitos_isa.Program.t ->
  t
(** The shadow memory is sized on first attach (see {!attach}). *)

val attach : t -> Mitos_isa.Machine.t -> unit
(** Bind the machine whose execution will be tracked. Must be running
    the same program the engine was created for. *)

val attach_shadow : t -> mem_size:int -> unit
(** Create the shadow state without a live machine — the replay path,
    where records come from a trace via {!process_record}. *)

val attach_existing_shadow : t -> Shadow.t -> unit
(** Resume tracking from a previously captured shadow state (see
    [Shadow.to_string]/[of_string]): a long replay can be suspended at
    a point with no open control scopes (check {!active_scopes}),
    checkpointed, and continued in a fresh engine. Raises
    [Invalid_argument] if the shadow's [M_prov] disagrees with the
    engine config. *)

val shadow : t -> Shadow.t
val stats : t -> Tag_stats.t
val counters : t -> counters
val policy : t -> Policy.t
val config : t -> config

val process_record : t -> Mitos_isa.Machine.exec_record -> unit
(** Apply one execution record to the shadow state (replay path). *)

val step : t -> bool
(** Execute one machine instruction and track it; [false] when the
    machine has halted. *)

val run : ?max_steps:int -> t -> int
(** Run to halt (or [max_steps], default 10 million); returns steps
    executed. *)

val active_scopes : t -> int
(** Currently open control-dependency scopes. *)

val on_record : t -> (Mitos_isa.Machine.exec_record -> unit) -> unit
(** Register a callback invoked after each record is processed (used
    by the recorder and live metrics). *)

val instrument :
  ?sample_every:int -> ?audit:Mitos_obs.Audit.t -> t -> Mitos_obs.Obs.t -> unit
(** Wire the engine to an observability context:

    - a per-record decision-latency histogram
      ([mitos_engine_record_latency_ticks]) and record counter;
    - IFP propagate/block counters per {!Mitos_tag.Tag_type}
      ([mitos_engine_ifp_decisions_total{ty,verdict}]);
    - shadow-op and scope-depth gauges plus an [engine] trace counter
      track, sampled every [sample_every] records (default 1024) via
      the {!on_record} mechanism. (Run-level quantities — tainted
      bytes, copies, distinct tags — are the {!Metrics.attach_sampler}
      layer's job.)

    [audit] additionally threads a decision flight recorder through
    the engine: every policy consultation stamps its step/pc/flow
    context onto the recorder (so [Decision] records emitted by the
    policy's Alg. 1/2 calls — see [Mitos.Decision.set_audit] — carry
    it), provenance-list evictions in the engine's shadow surface as
    [Eviction] records, and — when the obs context is live too —
    records are cross-linked into the Chrome trace as instant events.
    Auditing is gated on the recorder's own enabled flag, so a
    disabled obs context with a live recorder audits without tracing.

    With a disabled context ({!Mitos_obs.Obs.disabled}) and no live
    recorder this installs nothing — the engine keeps its zero-cost
    path (one pointer compare per record, plus one per policy
    consultation). Call before running; raises [Invalid_argument] if
    the engine is already instrumented or [sample_every < 1]. *)

(** {1 Tag confluence (online detection)}

    The paper notes that a "tag confluence (when two or more tags come
    together)" can drive policy, and FAROS "flags the attack when
    these two tags (netflow and export-table) come together on a
    byte". Watching a type pair turns that into an online alarm: the
    engine raises an alert the first time any byte acquires tags of
    both types, with the step at which it happened — live detection
    rather than post-mortem counting. *)

type alert = {
  alert_addr : int;
  alert_step : int;  (** machine step at which the pair first met *)
  alert_types : Tag_type.t * Tag_type.t;
}

val watch_confluence : t -> Tag_type.t -> Tag_type.t -> unit
(** Register a type pair to watch. May be called multiple times; call
    before running. *)

val alerts : t -> alert list
(** All alerts raised so far, in order of occurrence (one per byte and
    pair). *)

val first_alert_step : t -> int option
(** Step of the earliest alert, if any — the detection latency. *)

(** {1 Sink forensics}

    Every tainted byte crossing a sink (e.g. [net_send]) is attributed
    to the tags it carries — the flow-tomography view the paper's
    introduction motivates (which input did the exfiltrated data come
    from?). *)

val sink_profile : t -> (int * (Tag.t * int) list) list
(** Per sink id: how many tainted bytes carrying each tag crossed it,
    sorted by sink id then tag. *)

val site_profile : t -> (int * int * int) list
(** Per program point that saw indirect-flow decisions:
    [(pc, propagated, blocked)], busiest first — which instructions in
    the program are the IFP hot spots (and, under a restrictive
    policy, where taint is being lost). *)

(** {1 Taint timelines}

    With history recording enabled, the engine logs every tag arrival
    at every memory byte — when it happened and through which flow
    class — so an analyst can ask "how did this byte end up tainted?"
    and get the byte's life story (the investigative use the paper's
    forensics motivation implies). Off by default: it costs memory
    proportional to total arrivals. *)

type arrival = {
  arr_tag : Tag.t;
  arr_step : int;
  arr_via : string;
      (** "source", "copy", "compute", "addr-dep", "ctrl-dep", "ijump" *)
}

val record_history : t -> unit
(** Enable arrival logging (call before running). *)

(** {1 Live progress}

    A constant-cost snapshot of where the run is — plain field reads
    only (no shadow-store traversal), so the telemetry server's
    exposition domain can call it mid-run for [/snapshot.json] without
    perturbing or racing the hot path beyond benign word-sized
    reads. *)

type progress = {
  prog_step : int;  (** records processed so far *)
  prog_pc : int;  (** pc of the last record *)
  prog_direct_events : int;
  prog_indirect_events : int;
  prog_dfp_propagated : int;
  prog_ifp_propagated : int;
  prog_ifp_blocked : int;
  prog_shadow_ops : int;
  prog_evictions : int;
  prog_open_scopes : int;
  prog_source_bytes : int;
  prog_sink_tainted_bytes : int;
}

val progress : t -> progress

val taint_history : t -> int -> arrival list
(** Arrivals at the byte, oldest first; [] if history is off or the
    byte never received a tag. Includes arrivals later overwritten. *)
