(** In-process HTTP exposition server.

    A dependency-free (Unix stdlib only) HTTP/1.0 server that any
    long-running invocation can start to make its telemetry scrapeable
    while it runs: [GET /metrics] for Prometheus, [/healthz] for the
    SLO verdict, [/snapshot.json], [/tracez], [/auditz] for the
    in-memory rings (routes are supplied by the caller — see
    [Mitos_experiments.Telemetry] for the standard set).

    {b Hot-path contract.} The server runs on its own domain; the
    instrumented run never blocks on it. A route's [payload] thunk is
    called on the server domain at request time, so thunks must only
    {e read} run state — registry exposition takes the registry's
    creation mutex (never held by instrument updates), ring reads are
    lock-free best-effort snapshots. The run pays nothing per request.

    {b Determinism.} A live scrape observes whatever the run has done
    so far and is inherently racy; the deterministic twin is
    {!oneshot}, which evaluates every route once on the calling domain
    (after the run, when state is quiescent) and writes the payloads
    to files — what tests and CI diff.

    The server is one {!Netloop} on one domain, so an idle or slow
    client holds no one up, while payloads still run one at a time and
    the server keeps zero shared mutable state. A request head is
    capped at 64 KiB; EOF or a 5 s timeout answers what was read. *)

type payload = {
  status : int;  (** HTTP status code, e.g. 200, 503 *)
  content_type : string;
  body : string;
}

val text : ?status:int -> string -> payload
(** [text/plain; charset=utf-8], status 200 by default. *)

val json : ?status:int -> string -> payload
(** [application/json], status 200 by default. *)

val prometheus : ?status:int -> string -> payload
(** [text/plain; version=0.0.4] — the Prometheus exposition content
    type. *)

type route = {
  path : string;  (** exact match, e.g. "/metrics"; query strings are
                      stripped before matching *)
  file : string;  (** file name used by {!oneshot}, e.g. "metrics.prom" *)
  describe : string;  (** one line for the index page *)
  payload : (string * string) list -> payload;
      (** evaluated per request with the parsed query-string pairs
          (empty for {!oneshot}); exceptions become a 500 *)
}

val route : ?describe:string -> file:string -> string -> (unit -> payload) -> route
(** A query-insensitive route: the thunk runs whatever the query says. *)

val route_q :
  ?describe:string -> file:string -> string ->
  ((string * string) list -> payload) -> route
(** A query-aware route: the payload receives the query pairs in
    request order, keys and values verbatim (no percent-decoding).
    {!oneshot} evaluates it with an empty query. *)

type t

val start : ?host:string -> ?port:int -> route list -> t
(** Bind, listen and serve on a fresh loop domain. [host] defaults to
    ["127.0.0.1"]; [port] 0 (the default) lets the kernel pick a free
    port — read it back with {!port}. A [GET /] index listing the
    routes is always served. Raises [Unix.Unix_error] if the address
    cannot be bound, [Failure] on an unresolvable host. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val addr : t -> string
(** ["HOST:PORT"] as bound. *)

val stop : t -> unit
(** Stop the loop within its 0.2 s tick and close the listening
    socket. Idempotent. A request being answered finishes; open and
    queued connections are dropped. *)

val oneshot : dir:string -> route list -> (string * string) list
(** The offline twin: evaluate every route's payload once, in list
    order, on the calling domain, and write each body to
    [dir/<file>] (creating [dir] if needed). Returns
    [(file, path_written)] pairs in route order. Payload thunks that
    raise propagate — offline evaluation has no 500 to hide behind. *)

(** {1 Client}

    The matching fetch side, used by [mitos-cli watch], the CI smoke
    probe and the server's own tests. *)

val parse_url : string -> (string * int * string, string) result
(** [parse_url "http://host:port/path"] → [(host, port, path)]. The
    scheme is optional ([host:port/path] works); the path defaults to
    ["/"]. *)

val fetch :
  ?timeout:float -> host:string -> port:int -> path:string -> unit ->
  (int * string, string) result
(** One HTTP/1.0 GET. [Ok (status, body)] on any well-formed response
    (including non-200); [Error] with a one-line message on connection
    refusal, timeout (default 5s) or a malformed response. Never
    raises. *)

val fetch_url : ?timeout:float -> string -> (int * string, string) result
(** {!parse_url} + {!fetch}. *)
