/* The process entry of llhsc: it sizes the minor heap (the "nursery")
   before the OCaml runtime starts, then starts the runtime as the
   runtime's own main does.

   A pipeline run allocates 0.4-2 M words, so OCaml's default 2 MiB
   nursery is mostly page faults and resident memory.  Unless
   OCAMLRUNPARAM (or, when that is unset, CAMLRUNPARAM) already sets s,
   this appends s=64k (64k words, 512 KiB) to the parameters and puts
   them in OCAMLRUNPARAM, which the runtime reads as it starts.  --jobs
   workers and the daemon's jobs are forks of this process, so they keep
   the nursery it started with; llhsc execs no program, so the variable
   reaches nothing else.  Resizing with Gc.set once the runtime runs would
   force its first collection, which a run that never fills the nursery
   (--version, a small check) otherwise never pays. */

#define CAML_INTERNALS
#include <stdlib.h>
#include <string.h>
#include <caml/callback.h>
#include <caml/sys.h>

/* Does the comma-separated parameter list [p] hold an item starting
   with s? */
static int sets_nursery(const char *p)
{
  for (;;) {
    if (*p == 's') return 1;
    p = strchr(p, ',');
    if (p == NULL) return 0;
    p++;
  }
}

int main(int argc, char **argv)
{
  const char *p = getenv("OCAMLRUNPARAM");
  if (p == NULL) p = getenv("CAMLRUNPARAM");
  if (p == NULL) p = "";
  if (!sets_nursery(p)) {
    static const char item[] = "s=64k";
    size_t n = strlen(p);
    char *v = malloc(n + sizeof item + 1);
    if (v != NULL) {
      memcpy(v, p, n);
      if (n > 0) v[n++] = ',';
      memcpy(v + n, item, sizeof item);
      setenv("OCAMLRUNPARAM", v, 1);
      free(v);
    }
  }
  (void)argc;
  caml_main(argv);
  caml_do_exit(0);
  return 0;
}
