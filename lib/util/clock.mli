(** A monotonic clock for timing durations.

    Unlike [Unix.gettimeofday], it never steps when the wall clock is
    set, so the difference of two reads is an elapsed time. *)

val now_ns : unit -> int
(** Nanoseconds on [CLOCK_MONOTONIC] since an arbitrary origin fixed
    at boot. Two reads never go backwards. Allocates nothing. *)
