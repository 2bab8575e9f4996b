(** The readiness loop both TCP servers run on.

    Each loop domain selects over the shared listening socket and its
    own non-blocking connections, with a 0.2 s stop tick; loops race
    to [accept]. Replies are flushed when the socket is writable, and
    a connection is not read again until its output is flushed, so an
    idle or slow peer costs the others nothing. One timeout ends a
    connection that stays silent, leaves a frame unfinished or leaves
    its output unread for that long after its last reply. A descriptor
    [select] cannot hold (≥ FD_SETSIZE) is closed at accept. *)

type stream = Open | Eof | Timed_out  (** whether more bytes may come *)

type action =
  | Need_more
  | Reply of string * int  (** send, keep serving from this position *)
  | Reply_close of string  (** send, then close *)

type session = stream -> string -> int -> action
(** [session stream bytes pos] runs inline on the loop domain after
    each read and again after each [Reply]: [bytes] is everything
    received and not yet consumed, [pos] where the next frame starts.
    After [Eof] or [Timed_out] the connection closes once the replies
    are written. A session that raises loses its connection, not the
    loop: the replies it returned since the last read are dropped,
    the connection is closed and the loop serves on. *)

val start :
  domains:int -> timeout:float -> accept:(unit -> session) ->
  Unix.file_descr -> unit -> unit
(** Serve the listening socket, which the loop now owns, on [domains]
    (≥ 1) loop domains; [accept] gives each new connection its
    session. Returns the idempotent stop: it ends the loops within a
    tick (open connections are closed, pending output dropped), joins
    them and closes the listening socket. *)
