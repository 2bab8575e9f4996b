(** The multi-domain MITOS decision server.

    Turns the Eq. (8) decisioning core into a service: clients send
    batched {!Wire.Decide} requests carrying candidate tag-sets and
    local counts; the server answers with per-candidate marginals and
    verdicts, those {!Mitos.Decision.alg2} gives under its own
    parameters with a tag's count taken from its first listing. A
    Decide frame goes from bytes to bytes: its payload is read into
    per-domain arrays ({!Wire.decode_request_into}), each request is
    decided in a reused {!Mitos.Decision.scratch}, and the reply is
    written from that scratch ({!Wire.encode_decisions_body}), so no
    request or outcome list is built. The server also hosts a {!Mitos_distrib.Estimator} —
    the paper's "globally available" pollution scalar (§IV-B) — which
    cluster nodes feed through {!Wire.Publish} and read back through
    {!Wire.Read_global}; a decide request's effective pollution is the
    client-supplied local value {e plus} the estimator's global sum.

    {b Shape.} [max 1 workers] {!Mitos_obs.Netloop} domains racing to
    accept; each handles its connections' frames inline and never
    blocks on a socket. [read_timeout] ends a connection that is
    silent, mid-frame or not reading its replies with one [Err] frame;
    the {!Wire.unframe} max-frame guard bounds every frame.

    On a [Memory] endpoint none of that machinery exists: {!start}
    registers {!handle_body} as a loopback handler and requests run
    synchronously on the caller's domain — the deterministic twin the
    tests and {!Netcluster} use.

    {b Telemetry.} Per-request counters and latency histograms land in
    the supplied {!Mitos_obs.Registry}: [mitos_net_requests_total{op}],
    [mitos_net_decisions_total], [mitos_net_errors_total],
    [mitos_net_connections_total] and [mitos_net_request_ns{op}]
    (whose p50/p95/p99 appear in the Prometheus exposition). *)

type config = {
  workers : int;  (** serving (loop) domains; 0 means one *)
  nodes : int;  (** estimator slots for publish/read *)
  estimator_shards : int;
      (** estimator shard count (≥ 1); publishes to different shards
          stop serializing on one lock, and the decide path's global
          read is lock-free at any shard count. 1 keeps the global
          fold bit-identical to the unsharded estimator. *)
  read_timeout : float;  (** the one per-connection timeout, seconds *)
  max_frame : int;  (** {!Wire.unframe} bound *)
  node_id : string;
      (** the id this node reports in {!Wire.Telemetry} replies — the
          [node] label of its series in a federated exposition *)
}

val default_config : config
(** 4 serving domains, 16 nodes, 1 estimator shard,
    {!Mitos_obs.Netio.default_timeout} read timeout,
    {!Wire.default_max_frame}, node id ["node0"]. *)

type t
(** The service state: parameters, estimator, counters. Independent of
    any listener — one [t] can serve a loopback name and a TCP port at
    once, and {!handle_body} can be called directly. *)

val create :
  ?config:config ->
  ?registry:Mitos_obs.Registry.t ->
  ?obs:Mitos_obs.Obs.t ->
  params:Mitos.Params.t ->
  unit ->
  t
(** [registry] defaults to a fresh one (get it back with
    {!registry}). [obs] (default {!Mitos_obs.Obs.disabled}) records
    one [server.<op>] span per handled request, stamped with the trace
    context of the originating client when the request carried one;
    give it a real clock so span timestamps line up across processes.
    Keep it disabled where determinism matters — the loopback cluster
    contract does. *)

val registry : t -> Mitos_obs.Registry.t
val estimator : t -> Mitos_distrib.Estimator.t
val config : t -> config
val obs : t -> Mitos_obs.Obs.t

val set_health_probe : t -> (unit -> bool * string) -> unit
(** Wire the node's own SLO verdict into {!Wire.Query_telemetry}
    replies: the probe returns (healthy, rendered /healthz body) and
    is called per telemetry request, on whichever domain serves it —
    it must be safe to call concurrently. The default probe reports
    healthy with a "no SLO rules attached" body. *)

val handle_body : t -> string -> string
(** The whole service as a function: one request frame body in, one
    response frame body out. Decode failures and out-of-range nodes
    become {!Wire.Err} responses (with the request's id when it could
    be parsed, 0 otherwise); this never raises. Safe to call from any
    domain — the estimator serializes internally, counter updates are
    atomic, and each domain decides in arrays of its own. *)

(** {1 Listeners} *)

type listener

val start : t -> Transport.endpoint -> listener
(** Serve [t] on the endpoint. [Tcp]/[Unix_sock]: bind, listen and
    spawn the loop domains (a TCP port of 0 lets the kernel pick;
    read it back with {!endpoint}). [Memory]: register the loopback
    handler, spawning nothing. Raises [Unix.Unix_error] if the
    address cannot be bound, [Invalid_argument] if the loopback name
    is taken. *)

val endpoint : listener -> Transport.endpoint
(** The endpoint as actually bound. *)

val stop : listener -> unit
(** Graceful shutdown within one 0.2 s loop tick: requests being
    handled finish, open connections are closed, the loops joined and
    the listening socket closed (unlinking a Unix-socket path).
    Idempotent. *)
