(** Run-level measurement: the quantities the paper's evaluation
    reports, extracted from a finished (or running) engine. *)

open Mitos_tag

type summary = {
  policy : string;
  steps : int;
  wall_seconds : float;  (** measured by {!measure_run}, on the monotonic clock *)
  shadow_ops : int;  (** time-cost proxy (deterministic) *)
  footprint_bytes : int;  (** shadow-memory space (Table II "Space") *)
  tainted_bytes : int;
  total_copies : int;
  distinct_tags : int;
  ifp_propagated : int;
  ifp_blocked : int;
  dfp_propagated : int;
  ctrl_scopes : int;
  detected_bytes : int;
      (** bytes carrying both netflow and export-table tags — the
          paper's in-memory-attack detection metric (Table II) *)
  fairness : Mitos.Fairness.report;
}

val of_engine : ?wall_seconds:float -> Engine.t -> summary

val measure_run : ?max_steps:int -> Engine.t -> summary
(** [Engine.run] under a wall clock. *)

val detection_bytes : Shadow.t -> int
(** [Shadow.bytes_with_both shadow Network Export_table]. *)

val propagation_rate : summary -> float
(** Fraction of IFP candidates propagated; 1 if none were seen. *)

val header : string list
(** Column labels matching {!row}. *)

val row : summary -> string list
(** Render for {!Mitos_util.Table}. *)

val pp : Format.formatter -> summary -> unit

(** {1 Live timelines}

    Sampling of system-level quantities while the engine runs — the
    raw series behind "pollution is (mostly) increasing on time"
    (paper §V-B). *)

type timeline = {
  steps_series : Mitos_util.Timeseries.t;  (** x = machine step *)
  copies : Mitos_util.Timeseries.t;  (** total tag copies *)
  tainted : Mitos_util.Timeseries.t;  (** tainted memory bytes *)
  distinct : Mitos_util.Timeseries.t;  (** live distinct tags *)
}

(** One sampled observation of the run-level quantities. *)
type sample = {
  at_step : int;
  sampled_copies : int;
  sampled_tainted : int;
  sampled_distinct : int;
}

val attach_sampler :
  ?sample_every:int ->
  ?registry:Mitos_obs.Registry.t ->
  ?observe:(sample -> unit) ->
  Engine.t ->
  unit
(** The single sampling path behind every live consumer: one
    [on_record] hook fires every [sample_every] processed records
    (default 1024), publishes the sample to the registry's
    [mitos_run_*] gauges (when given) and to the [observe] callback.
    Attach before running; raises [Invalid_argument] when
    [sample_every < 1]. *)

val attach_timeline : ?sample_every:int -> Engine.t -> timeline
(** {!attach_sampler} feeding the four {!Mitos_util.Timeseries}
    series. Attach before running. *)
