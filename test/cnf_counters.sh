#!/usr/bin/env bash
# Check the CNF counters of a traced quad_inproc run against the figures
# DESIGN.md "CNF construction" pins.  Reads the benchmark's output on
# stdin; its last line is the result.
#
#   bash perfbench/run.sh run --workload quad_inproc --seconds 2 --trace 1 \
#     | bash test/cnf_counters.sh
set -euo pipefail
line=$(tail -n 1)
status=0
for pin in sat.vars=7786 sat.clauses=18120 sat.conflicts=16 \
           sat.propagations=20919 sat.trace_steps=85069 smt.queries=51; do
  name=${pin%%=*}
  want=${pin#*=}
  got=$(printf '%s\n' "$line" | grep -o "\"$name\":{\"value\":[0-9.]*" | sed 's/.*://' || true)
  if [ "$got" = "$want.0" ]; then
    echo "ok: $name $want"
  else
    echo "FAIL: $name is ${got:-missing}, want $want"
    status=1
  fi
done
exit $status
