/* CPU affinity of the calling thread, for the benchmark's
   single-threaded measurements (see Affinity in main.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

static cpu_set_t initial;
static int have_initial = 0;

/* Confine the calling thread to the [k]-th (mod count) of the CPUs the
   process could use when first called.  False when there is only one
   such CPU or the call fails. */
value e2e_pin(value k)
{
  if (!have_initial) {
    if (sched_getaffinity(0, sizeof initial, &initial) != 0) return Val_false;
    have_initial = 1;
  }
  int n = CPU_COUNT(&initial);
  if (n < 2) return Val_false;
  int want = Int_val(k) % n, seen = 0;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (!CPU_ISSET(c, &initial)) continue;
    if (seen++ == want) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
    }
  }
  return Val_false;
}

/* Let the calling thread run on every CPU it could use at first. */
value e2e_unpin(value unit)
{
  (void)unit;
  if (have_initial) sched_setaffinity(0, sizeof initial, &initial);
  return Val_unit;
}
