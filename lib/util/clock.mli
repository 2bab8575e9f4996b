(** A monotonic clock for timing durations.

    Unlike the wall clock that [gettimeofday] reads, it never steps
    when the system time is set, so the difference of two reads is an
    elapsed time. Every duration the libraries time is read here. *)

val now_ns : unit -> int
(** Nanoseconds on [CLOCK_MONOTONIC] since an arbitrary origin fixed
    at boot. Two reads never go backwards. Allocates nothing. *)
