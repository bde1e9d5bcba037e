/* CPU time of the calling thread.  Each OCaml domain runs on its own
   thread, so a job's delta counts only the domain that ran it; the
   process clock would also bill every other domain's concurrent work. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double runner_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value runner_thread_cpu_s_byte(value unit)
{
  return caml_copy_double(runner_thread_cpu_s(unit));
}
