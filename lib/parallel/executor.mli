(** A persistent set of worker domains draining one task queue.

    Long-lived workers pull independent, fire-and-forget tasks as they
    arrive, with no result to collect. {!Pool} runs its batch
    drainers on one.

    There is one queue, guarded by one ["executor:<name>"]
    {!Mitos_obs.Contended} lock, and any idle worker takes the next
    task, so a worker held by a long-lived task never holds up work
    behind it while a sibling is idle. Tasks start in submission
    order modulo worker availability; nothing here is deterministic —
    determinism-sensitive callers use {!Pool}. A task that raises is
    contained: the exception is counted ({!failures}) and the worker
    moves on.

    [workers = 0] degenerates to inline execution: {!submit} runs the
    task on the calling domain before returning — the single-domain
    code path {e is} the multi-domain code path, mirroring the pool's
    [jobs = 1] contract. *)

type t

val create : ?name:string -> workers:int -> unit -> t
(** Spawn [workers] domains ([0] = run tasks inline in {!submit}).
    [name] labels the lock series and error output. Raises
    [Invalid_argument] if [workers < 0]. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task (or run it inline when [workers = 0]). Raises
    [Invalid_argument] after {!shutdown}. *)

val pending : t -> int
(** Tasks enqueued or still running (always 0 when inline), so a
    worker pinned inside a long-lived task reads as busy, not idle. *)

val failures : t -> int
(** Tasks that raised. *)

val shutdown : t -> unit
(** Stop accepting work, drain the queue, join the workers.
    Idempotent. *)
