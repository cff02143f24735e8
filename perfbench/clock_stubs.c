/* A monotonic nanosecond clock: sub-microsecond stages (parsing a
   QUERY line, an edge query's 2-hop BFS) need finer ticks than
   gettimeofday's microseconds. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
