(** The MITOS decision-service wire protocol.

    A versioned, length-prefixed binary codec for the request/response
    protocol spoken between {!Client} and {!Server} (and, in cluster
    mode, between nodes and the coordinator). The framing and every
    field use the repo's {!Mitos_util.Codec} LEB128 varints, so
    messages of mostly-small integers stay small; floats are 64-bit
    IEEE, so a pollution value published by a node and re-read by a
    policy is bit-exact — the property behind the loopback cluster's
    byte-identical-to-in-process contract.

    {b Frame layout} (byte-by-byte in DESIGN §11–12):

    {v
    varint  L        length of the body that follows
    -- body (L bytes) --
    byte    version  protocol version: 1 or 2
    varint  id       request id, echoed verbatim in the response
    byte    kind     message discriminator
    [trace]          v2 request bodies only: optional trace context
    ...              per-message payload
    v}

    Version 2 adds an optional trace context to {e request} bodies —
    a presence byte then two length-prefixed lowercase-hex strings
    (32-char trace id, 16-char span id) — so a client span and the
    server worker executing the request share one trace. Response
    bodies are unchanged. Version-1 bodies still decode (the trace is
    [None]); decoders accept both.

    {b Decoding is strict and bounded}: every failure is a typed
    {!error}, never an exception, and no decode path allocates the
    {e announced} size of anything — {!unframe} rejects an announced
    length beyond [max_frame] before touching the payload, and
    in-body strings/lists fail on the first missing byte. Trace ids
    are validated as strictly as every other field. Errors carry the
    byte offset where decoding failed. *)

open Mitos_tag
module Propagation = Mitos_obs.Propagation
module Snapshot = Mitos_obs.Registry.Snapshot

val version : int
(** Current protocol version (2). *)

val min_version : int
(** Oldest version decoders still accept (1). *)

val default_max_frame : int
(** 1 MiB — the default bound {!unframe} enforces on announced frame
    lengths. *)

(** Decode failures. [Truncated] from {!unframe} means "incomplete,
    read more bytes"; every other case is a protocol violation.
    [offset] is the byte position (within the buffer for {!unframe},
    within the body for body decoders) where decoding failed — it
    travels in the [Err] frame the server sends back, which is what
    makes v1/v2 interop bugs debuggable from the client side. *)
type error =
  | Truncated of { offset : int }
      (** input ends before the announced frame does *)
  | Oversized of { announced : int; limit : int }
      (** length prefix beyond [max_frame]; nothing was allocated *)
  | Bad_version of int  (** version byte we do not speak *)
  | Bad_kind of int  (** unknown message discriminator *)
  | Corrupt of { offset : int; msg : string }
      (** anything else: overlong varint, bad bool, unknown tag type,
          invalid trace id, trailing bytes, ... *)

val error_to_string : error -> string

(** {1 Messages} *)

(** One indirect-flow decision to make: the candidate tag-set of the
    flow, each tag with its local count [n_{T,I}], the free provenance
    [space] at the destination, and the client's local contribution to
    the weighted pollution (the server adds its estimator's global —
    see {!Server}). *)
type decide_request = {
  space : int;
  pollution : float;
  candidates : (Tag.t * int) list;
}

(** One per-candidate outcome: {!Mitos.Decision.ranked} itself, so the
    server encodes what Alg. 2 returns without re-mapping it. *)
type decided = Mitos.Decision.ranked = {
  tag : Tag.t;
  marginal : float;
  verdict : Mitos.Decision.verdict;
}

type stats = {
  served : int;  (** request frames handled *)
  decided : int;  (** individual decision requests decided *)
  publishes : int;  (** pollution publishes accepted *)
  nodes : int;  (** estimator slots *)
  global : float;  (** current global pollution sum *)
}

(** A node's full telemetry cut, served to the fleet aggregator: its
    self-reported id, its own SLO verdict (flag + rendered /healthz
    body), and one {!Mitos_obs.Registry.Snapshot} as a compact binary
    body. The snapshot rides the same strict codec as every other
    field — truncated, oversized or internally inconsistent snapshots
    decode to typed {!error}s, never exceptions. *)
type telemetry = {
  node : string;
  healthy : bool;
  health : string;
  snapshot : Snapshot.t;
}

type request =
  | Ping
  | Decide of decide_request list  (** batched *)
  | Publish of { node : int; value : float }
  | Read_global
  | Read_node of int
  | Query_stats
  | Query_telemetry

type response =
  | Pong
  | Decisions of decided list list  (** one list per batched request *)
  | Published of float  (** global sum after the publish *)
  | Global of float
  | Node_value of float
  | Stats of stats
  | Telemetry of telemetry
  | Err of string  (** server-side refusal, e.g. node out of range *)

val request_kind : request -> string
(** Stable lowercase label ("ping", "decide", ...) — used for the
    per-operation metric labels. *)

(** {1 Encoding} *)

val encode_request :
  ?version:int -> ?trace:Propagation.context -> id:int -> request -> string
(** One complete frame, length prefix included. [version] defaults to
    the current version; [?trace] attaches a trace context (v2 only —
    raises [Invalid_argument] if [version < 2] and a trace is given). *)

val encode_response : id:int -> response -> string

val encode_request_body :
  ?version:int -> ?trace:Propagation.context -> id:int -> request -> string
(** The frame body alone — what {!Transport.send} expects (the
    transport adds the length prefix where the medium needs one). *)

val encode_response_body : id:int -> response -> string

val frame : string -> string
(** Prefix an already-encoded body with its varint length — what the
    socket transports put on the wire — in one allocation. *)

(** {1 Decoding} *)

val unframe :
  ?max_frame:int -> string -> pos:int -> (string * int, error) result
(** Extract one frame body from a byte buffer starting at [pos];
    returns the body and the position just past the frame.
    [Error Truncated] when the buffer holds only part of a frame (the
    transport reads more and retries); [Error (Oversized _)] when the
    announced length exceeds [max_frame]. *)

val decode_request :
  string -> (int * Propagation.context option * request, error) result
(** Decode an unframed body to [(id, trace, request)]. The trace is
    [None] for v1 bodies and v2 bodies sent without one. *)

val decode_response : string -> (int * response, error) result

val decode_request_frame :
  ?max_frame:int -> string ->
  (int * Propagation.context option * request, error) result
(** {!unframe} + {!decode_request}, requiring the input to be exactly
    one frame (trailing bytes are [Corrupt]). *)

val decode_response_frame :
  ?max_frame:int -> string -> (int * response, error) result
