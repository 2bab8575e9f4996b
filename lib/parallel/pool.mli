(** A deterministic batch layer over an {!Executor} of worker domains.

    The experiment layer is embarrassingly parallel — grid cells,
    sensitivity sweeps, attack variants — but its output contract is
    a rendered report, and reports are diffed across runs (and in CI
    against a sequential run). The pool therefore guarantees:

    - {b Order preservation}: {!map} returns results in input order,
      whatever order tasks actually executed in.
    - {b Determinism}: tasks share no pool state, so a parallel run is
      byte-identical to a sequential one as long as the tasks
      themselves are pure (or own their mutable state).
    - {b Sequential degeneration}: [jobs = 1] spawns no domains and
      runs every task inline in the calling domain — the parallel
      code path {e is} the sequential code path.

    Scheduling: each batch is an array of tasks and an atomic cursor.
    The pool owns an {!Executor} of [jobs - 1] workers; a batch
    submits [jobs - 1] drain tasks to it and the submitting domain
    drains too, each claiming contiguous chunks of indices off the
    cursor until the batch runs dry. Chunking amortizes the claim cost
    for large batches of small tasks; the chunk size targets ~8 chunks
    per domain and is always 1 for the small, heavy batches the
    experiment layer produces.

    Nested use: a task that calls back into its own pool (or any
    pool) runs that inner batch inline — the pool never deadlocks on
    re-entry, it just declines to parallelize nested levels.

    Exceptions: if tasks raise, the batch still runs to completion
    and the first exception (in {e completion} order) is re-raised in
    the submitting domain.

    The pool is safe to share between client domains (submissions
    serialize), but it is designed to be driven from one place — the
    benchmark harness or the CLI — around otherwise single-threaded
    code. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs] defaults
    to. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] starts [jobs - 1] worker domains ([jobs]
    includes the submitting domain). Default: {!default_jobs}.
    Raises [Invalid_argument] if [jobs < 1]. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f xs] = [List.map f xs], computed on the pool.
    Results are in input order. *)

val map_opt : t option -> f:('a -> 'b) -> 'a list -> 'b list
(** [map_opt (Some pool)] is [map pool]; [map_opt None] is
    [List.map]. The experiment layer takes [?pool] arguments and
    funnels through this. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent. Using the pool after
    [shutdown] raises [Invalid_argument], at every [jobs]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)
