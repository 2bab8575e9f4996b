(** Shared socket/timeout plumbing.

    One home for the Unix-socket boilerplate that every networked
    piece of the repo needs — the {!Server} exposition fetch side,
    [mitos-cli watch], and the [Mitos_net] wire client/server. The
    module owns the single [?timeout] convention: every blocking
    operation takes [?timeout] in seconds, defaulting to
    {!default_timeout}, applied as [SO_RCVTIMEO]/[SO_SNDTIMEO] on the
    descriptor.

    All [Error] returns carry a one-line human message; nothing here
    raises for expected network failures. *)

val default_timeout : float
(** 5 seconds — what every [?timeout] in the repo defaults to. *)

val resolve : string -> Unix.inet_addr
(** Numeric address or hostname. Raises [Failure] with a one-line
    message on an unresolvable host. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string; raises [Exit] if the peer stops
    accepting bytes, [Unix.Unix_error] on socket errors. *)

val read_to_eof : Unix.file_descr -> string
(** Drain the descriptor until EOF. *)

val close_quietly : Unix.file_descr -> unit
(** [Unix.close], swallowing [Unix_error] (idempotent teardown). *)

val connect_tcp :
  ?timeout:float -> host:string -> port:int -> unit ->
  (Unix.file_descr, string) result
(** Resolve, create, apply timeouts and connect. [Error] on an
    unresolvable host, refusal or timeout — the descriptor is closed
    on every failure path. The message distinguishes the failure
    class: ["... refused connection (...)"] when the peer answered
    with a reset (nobody listening — a killed node), ["... timed out
    (...)"] when nothing answered within the timeout (a slow or
    partitioned node), ["... unreachable (...)"] otherwise. *)

val connect_unix :
  ?timeout:float -> string -> (Unix.file_descr, string) result
(** Same contract for a Unix-domain socket path. *)

val listen_tcp :
  ?backlog:int -> host:string -> port:int -> unit ->
  Unix.file_descr * int
(** Bind ([SO_REUSEADDR]) and listen; returns the descriptor and the
    bound port (useful with [port:0]). Raises [Unix.Unix_error] if the
    address cannot be bound, [Failure] on an unresolvable host. *)

val listen_unix : ?backlog:int -> string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path, unlinking any stale
    socket file first. *)
