#include <time.h>
#include <caml/mlvalues.h>

/* CLOCK_MONOTONIC in nanoseconds: 63 bits hold about 146 years of
   uptime. Allocates nothing and never raises. */
value mitos_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
