(** A fixed-size pool of OCaml 5 domains with a chunked work queue.

    The experiment layer is embarrassingly parallel — grid cells,
    sensitivity sweeps, attack variants — but its output contract is
    a rendered report, and reports are diffed across runs (and in CI
    against a sequential run). The pool therefore guarantees:

    - {b Order preservation}: {!map} returns results in input order,
      whatever order tasks actually executed in. Reductions combine
      mapped values left-to-right in input order, so {!map_reduce}
      with a non-commutative [combine] is still deterministic.
    - {b Determinism}: tasks share no pool state; {!map_seeded}
      derives one RNG per task from [seed] and the task's {e index}
      (never from execution order), so a parallel run is byte-identical
      to a sequential one as long as the tasks themselves are pure
      (or own their mutable state).
    - {b Sequential degeneration}: [jobs = 1] spawns no domains and
      runs every task inline in the calling domain — the parallel
      code path {e is} the sequential code path.

    Scheduling: each batch is an array of tasks; workers (and the
    submitting domain, which participates) claim contiguous chunks of
    indices off an atomic cursor until the batch drains. Chunking
    amortizes the claim cost for large batches of small tasks; the
    chunk size targets ~8 chunks per worker and is always 1 for the
    small, heavy batches the experiment layer produces.

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

val jobs : t -> int
(** Parallelism degree, including the submitting domain. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f xs] = [List.map f xs], computed on the pool.
    Results are in input order. *)

val map_array : t -> f:('a -> 'b) -> 'a array -> 'b array

val mapi : t -> f:(int -> 'a -> 'b) -> 'a list -> 'b list

val iter : t -> f:('a -> unit) -> 'a list -> unit
(** Effects of [f] on distinct elements may run concurrently; [f]
    must not share unsynchronized mutable state across elements. *)

val map_reduce :
  t ->
  map:('a -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'a list ->
  'b
(** [map] on the pool, then a left fold of [combine] over the results
    in input order (in the submitting domain). Deterministic even for
    non-commutative [combine]. *)

val map_seeded :
  t ->
  seed:int ->
  f:(rng:Mitos_util.Rng.t -> 'a -> 'b) ->
  'a list ->
  'b list
(** Like {!map}, with a private RNG per task. The RNG streams are
    split from [seed] by task index before dispatch, so they do not
    depend on [jobs] or on scheduling: [map_seeded ~seed] is
    reproducible and identical at any parallelism degree. *)

val map_opt : t option -> f:('a -> 'b) -> 'a list -> 'b list
(** [map_opt (Some pool)] is [map pool]; [map_opt None] is
    [List.map]. The experiment layer takes [?pool] arguments and
    funnels through this. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent. Using the pool after
    [shutdown] raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)
