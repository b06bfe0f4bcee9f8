/* getrusage(2) and getloadavg(3) for the benchmark: CPU seconds, peak
   resident set size and machine load, which the OCaml Unix library does
   not expose (Unix.times has clock-tick resolution and no memory
   figure). */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <stdlib.h>
#include <sys/resource.h>

/* who: 0 = this process, 1 = reaped descendants.
   Returns [| user s; system s; ru_maxrss KiB |]. */
CAMLprim value perfbench_rusage(value vwho)
{
  CAMLparam1(vwho);
  CAMLlocal1(res);
  struct rusage ru;
  int who = Long_val(vwho) == 0 ? RUSAGE_SELF : RUSAGE_CHILDREN;
  if (getrusage(who, &ru) != 0) {
    ru.ru_utime.tv_sec = ru.ru_utime.tv_usec = 0;
    ru.ru_stime.tv_sec = ru.ru_stime.tv_usec = 0;
    ru.ru_maxrss = 0;
  }
  res = caml_alloc(3 * Double_wosize, Double_array_tag);
  Store_double_field(res, 0, ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6);
  Store_double_field(res, 1, ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
  Store_double_field(res, 2, (double)ru.ru_maxrss);
  CAMLreturn(res);
}

/* One-minute load average, or -1 when the system cannot say. */
CAMLprim value perfbench_loadavg(value unit)
{
  double l[1];
  (void)unit;
  if (getloadavg(l, 1) != 1) l[0] = -1.0;
  return caml_copy_double(l[0]);
}
