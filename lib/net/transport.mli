(** Pluggable frame transport for the decision service.

    A transport moves opaque {!Wire} frame bodies between a client and
    a server. Two families exist:

    - {b Sockets} ([Tcp]/[Unix_sock]): real kernel sockets through
      {!Mitos_obs.Netio}, with the shared [?timeout] convention
      applied to connect/read/write. What production and the CI smoke
      job use.
    - {b Loopback} ([Memory]): a process-local registry of named
      servers. [send] invokes the server's handler {e synchronously on
      the calling domain} and queues the response; [recv] pops it.
      No domains, no sockets, no buffering nondeterminism — a
      networked run over loopback is a deterministic function of its
      inputs, which is what lets {!Netcluster} promise byte-identical
      output to the in-process cluster.

    Frames on sockets are delimited exactly as {!Wire.unframe}
    expects (varint length + body); the loopback carries whole bodies
    and never splits them. *)

type endpoint =
  | Tcp of { host : string; port : int }
  | Unix_sock of string  (** Unix-domain socket path *)
  | Memory of string  (** loopback server name *)

val endpoint_to_string : endpoint -> string
(** ["tcp://host:port"], ["unix:///path"], ["mem://name"]. *)

val endpoint_of_string : string -> (endpoint, string) result
(** Accepts the three forms above; a bare ["host:port"] means TCP. *)

(** {1 Client connections} *)

type conn

val connect :
  ?timeout:float -> ?max_frame:int -> endpoint -> (conn, string) result
(** [Error] with a one-line message on refusal/timeout/unknown
    loopback name. The message distinguishes refusal from timeout
    (see {!Mitos_obs.Netio.connect_tcp} and {!connect_failure}) so a
    caller can tell a killed node from a slow one. [timeout] defaults
    to {!Mitos_obs.Netio.default_timeout} and governs every subsequent
    [send]/[recv] on the connection. *)

val connect_failure : string -> [ `Refused | `Timeout | `Unknown ]
(** Classify a connect (or retry-exhaustion "last") error message:
    [`Refused] when the peer actively turned the connection away — a
    TCP reset, or a loopback name with no registered server, i.e. the
    node is {e dead}; [`Timeout] when nothing answered within the
    timeout — the node is {e slow or partitioned}; [`Unknown]
    otherwise. Total over arbitrary strings. *)

val send : conn -> string -> (unit, string) result
(** Send one frame body (the transport adds the length prefix). On
    loopback this runs the server handler before returning. *)

val recv : conn -> (string, Wire.error) result
(** Receive one frame body. [Error Truncated] means the peer closed
    (or, on loopback, nothing was sent); [Corrupt] covers socket-level
    read failures and timeouts. *)

val close : conn -> unit
(** Idempotent. *)

val peer : conn -> string
(** Human-readable peer address, for error messages. *)

(** {1 Loopback registry}

    Used by {!Server.start} when given a [Memory] endpoint; exposed so
    tests can plug bare handlers in. *)

module Loopback : sig
  val register : string -> (string -> string) -> unit
  (** [register name handler] installs a frame-body handler. Raises
      [Invalid_argument] if [name] is taken. *)

  val unregister : string -> unit
  val registered : string -> bool

  val handler : string -> (string -> string) option
  (** The installed handler, if any (the registry serializes lookups
      on a mutex; the handler itself runs outside it). *)
end
