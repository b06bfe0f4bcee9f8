#!/bin/sh
# CLI integration tests: exercises every llhsc subcommand against the
# file-based fixtures in examples/files.  Invoked by the dune runtest alias
# with $1 = path to the llhsc binary and $2 = path to the fixtures.
set -e

LLHSC=$1
FIXTURES=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

echo "# check: clean DTS passes"
"$LLHSC" check "$FIXTURES/custom-sbc.dts" --schemas "$FIXTURES/schemas" \
  > "$TMP/check.out" || fail "check should pass"
grep -q "all checks passed" "$TMP/check.out" || fail "expected 'all checks passed'"

echo "# start: the nursery is sized before the runtime starts; a user's s wins"
# v=0x400 prints the GC counters at exit.  llhsc's 64k-word nursery is
# given before the runtime starts, so --version runs no collection; a
# 4k-word nursery set through either variable makes a check collect.
OCAMLRUNPARAM=v=0x400 "$LLHSC" --version > /dev/null 2> "$TMP/gc.err"
grep -qx "minor_collections: 0" "$TMP/gc.err" || fail "--version ran a minor collection"
grep -qx "major_collections: 0" "$TMP/gc.err" || fail "--version ran a major collection"
OCAMLRUNPARAM=v=0x400,s=4k "$LLHSC" check "$FIXTURES/custom-sbc.dts" > /dev/null 2> "$TMP/gc.err"
grep -q "^minor_collections: [1-9]" "$TMP/gc.err" || fail "OCAMLRUNPARAM s=4k was overridden"
env -u OCAMLRUNPARAM CAMLRUNPARAM=v=0x400,s=4k "$LLHSC" check "$FIXTURES/custom-sbc.dts" \
  > /dev/null 2> "$TMP/gc.err"
grep -q "^minor_collections: [1-9]" "$TMP/gc.err" || fail "CAMLRUNPARAM s=4k was overridden"

echo "# check --certify: report matches the golden byte for byte"
# Run from the directory holding examples/ so the report names the DTS as
# the golden does; the per-query trace-step counts pin the blasted CNF.
LLHSC_ABS=$(cd "$(dirname "$LLHSC")" && pwd)/$(basename "$LLHSC")
GOLDEN=$(cd "$(dirname "$0")/../golden" && pwd)
(cd "$FIXTURES/../.." && "$LLHSC_ABS" check examples/files/custom-sbc.dts \
  --schemas examples/files/schemas --certify) > "$TMP/certify.out" \
  || fail "certified check should pass"
cmp "$GOLDEN/check_certify.expected" "$TMP/certify.out" \
  || fail "certified check report differs from test/golden/check_certify.expected"

echo "# check: clash is detected and exits non-zero"
sed 's/0x0 0x20000000 0x0 0x1000/0x0 0x60000000 0x0 0x1000/' \
  "$FIXTURES/custom-sbc.dts" > "$TMP/clash.dts"
cp "$FIXTURES/cpus.dtsi" "$TMP/"
if "$LLHSC" check "$TMP/clash.dts" > "$TMP/clash.out"; then
  fail "clash check should fail"
fi
grep -q "collide" "$TMP/clash.out" || fail "expected collision report"
grep -q "0x60000000" "$TMP/clash.out" || fail "expected witness address"

echo "# products: 12 products, none dead"
"$LLHSC" products "$FIXTURES/custom-sbc.fm" --dead > "$TMP/products.out"
grep -q "12 valid product(s)" "$TMP/products.out" || fail "expected 12 products"
grep -q "no dead features" "$TMP/products.out" || fail "expected no dead features"

echo "# generate: VM1 product"
"$LLHSC" generate --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
  -f "memory,cpu@0,uart@20000000,uart@30000000,veth0" --check -o "$TMP/vm1.dts" \
  > "$TMP/generate.out" || fail "generate should pass"
grep -q "applied deltas: d3 < d4" "$TMP/generate.out" || fail "expected delta order"
grep -q "veth0@80000000" "$TMP/vm1.dts" || fail "expected veth0 node in output"

echo "# generated DTS re-parses and re-checks clean"
"$LLHSC" check "$TMP/vm1.dts" > /dev/null || fail "generated DTS should check clean"

echo "# pipeline: artifacts written"
"$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
  --model "$FIXTURES/custom-sbc.fm" --schemas "$FIXTURES/schemas" \
  --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
  --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
  --exclusive cpus --out-dir "$TMP/out" > "$TMP/pipeline.out" || fail "pipeline should pass"
for f in vm1.dts vm2.dts platform.dts platform.c config.c; do
  [ -f "$TMP/out/$f" ] || fail "missing artifact $f"
done
grep -q "cpu_num = 2" "$TMP/out/platform.c" || fail "platform.c content"
grep -q "vmlist_size = 2" "$TMP/out/config.c" || fail "config.c content"

echo "# pipeline: invalid allocation rejected"
if "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
  --model "$FIXTURES/custom-sbc.fm" \
  --vm "memory,cpu@0" --vm "memory,cpu@0" --exclusive cpus > "$TMP/bad.out"; then
  fail "double-cpu pipeline should fail"
fi
grep -q "no allocation" "$TMP/bad.out" || fail "expected allocation error"

echo "# dtb: round trip"
"$LLHSC" dtb "$FIXTURES/custom-sbc.dts" -o "$TMP/board.dtb" > /dev/null
[ -s "$TMP/board.dtb" ] || fail "dtb not written"
"$LLHSC" dtb -d "$TMP/board.dtb" -o "$TMP/board-roundtrip.dts" > /dev/null
grep -q "memory@40000000" "$TMP/board-roundtrip.dts" || fail "decompiled DTS content"

echo "# overlay: merge and check"
cat > "$TMP/base.dts" <<'EOF'
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x10000000>; };
    u0: uart@10000000 { compatible = "ns16550a"; reg = <0x10000000 0x100>; status = "disabled"; };
};
EOF
cat > "$TMP/enable-uart.dts" <<'EOF'
/dts-v1/;
/ {
    fragment@0 {
        target = <&u0>;
        __overlay__ { status = "okay"; };
    };
};
EOF
"$LLHSC" overlay "$TMP/base.dts" "$TMP/enable-uart.dts" --check -o "$TMP/merged.dts"   > /dev/null || fail "overlay should pass"
grep -q 'status = "okay"' "$TMP/merged.dts" || fail "overlay not applied"

echo "# smt2 export: matches the golden byte for byte"
# The export prints every term the schema compiler builds, (bvmul ...) and
# ((_ zero_extend n) ...) among them, through Smt.Term's printer.
"$LLHSC" smt2 "$FIXTURES/custom-sbc.dts" --schemas "$FIXTURES/schemas" -o "$TMP/problem.smt2" > /dev/null
cmp "$GOLDEN/smt2.expected" "$TMP/problem.smt2" \
  || fail "smt2 export differs from test/golden/smt2.expected"

echo "# products anomalies"
"$LLHSC" products "$FIXTURES/custom-sbc.fm" --anomalies > "$TMP/anom.out"
grep -q "no false-optional features" "$TMP/anom.out" || fail "expected no false optionals"

echo "# diff"
"$LLHSC" diff "$FIXTURES/custom-sbc.dts" "$FIXTURES/custom-sbc.dts" > "$TMP/diff0.out" \
  || fail "identical files should diff clean"
grep -q "no differences" "$TMP/diff0.out" || fail "expected no differences"
if "$LLHSC" diff "$FIXTURES/custom-sbc.dts" "$TMP/vm1.dts" > "$TMP/diff1.out"; then
  fail "different files should exit 1"
fi
grep -q "+ node /vEthernet" "$TMP/diff1.out" || fail "expected vEthernet addition"

echo "# build from project file"
"$LLHSC" build "$FIXTURES/custom-sbc.proj.yaml" > "$TMP/build.out" || fail "build should pass"
grep -q "product platform" "$TMP/build.out" || fail "expected platform product"

echo "# build: output: artifacts are byte-identical to pipeline --out-dir"
mkdir "$TMP/proj"
cp -R "$FIXTURES/." "$TMP/proj/"
echo "output: out" >> "$TMP/proj/custom-sbc.proj.yaml"
"$LLHSC" build "$TMP/proj/custom-sbc.proj.yaml" > "$TMP/build-out.out" \
  || fail "build with output: should pass"
grep -q "artifacts written to" "$TMP/build-out.out" || fail "expected build artifact notice"
for f in vm1.dts vm2.dts platform.dts platform.c config.c; do
  cmp -s "$TMP/out/$f" "$TMP/proj/out/$f" \
    || fail "build artifact $f differs from pipeline --out-dir"
done

echo "# build: a project listing two delta files reports as the one-file project"
# d1 and d2 come after d3, which the second file declares: the set is
# validated as one.
mkdir "$TMP/split"
cp -R "$FIXTURES/." "$TMP/split/"
sed -n '1,20p' "$FIXTURES/custom-sbc.deltas" > "$TMP/split/veth.deltas"
sed -n '21,$p' "$FIXTURES/custom-sbc.deltas" > "$TMP/split/board.deltas"
sed 's/^  - custom-sbc.deltas$/  - veth.deltas\n  - board.deltas/' \
  "$TMP/split/custom-sbc.proj.yaml" > "$TMP/split/split.proj.yaml"
grep -q "^  - board.deltas" "$TMP/split/split.proj.yaml" || fail "split project not written"
"$LLHSC" build "$TMP/split/custom-sbc.proj.yaml" > "$TMP/one.out" || fail "one-file build should pass"
"$LLHSC" build "$TMP/split/split.proj.yaml" > "$TMP/two.out" || fail "two-file build should pass"
cmp "$TMP/one.out" "$TMP/two.out" || fail "two delta files report differently from one"

echo "# configure with propagation"
"$LLHSC" configure "$FIXTURES/custom-sbc.fm" -d veth0 > "$TMP/conf.out" || fail "configure should pass"
grep -Eq "cpu@0 +forced" "$TMP/conf.out" || fail "cpu@0 should be forced"
grep -Eq "cpu@1 +forbidden" "$TMP/conf.out" || fail "cpu@1 should be forbidden"
if "$LLHSC" configure "$FIXTURES/custom-sbc.fm" -d veth0 -d "cpu@1" 2> "$TMP/confbad.out"; then
  fail "invalid decision should be rejected"
fi
grep -q "rejected" "$TMP/confbad.out" || fail "expected rejection message"

echo "# delta-set analysis"
"$LLHSC" analyze --deltas "$FIXTURES/custom-sbc.deltas" --model "$FIXTURES/custom-sbc.fm" \
  > "$TMP/analyze.out" || fail "analyze should exit 0 (no conflicts)"
grep -q "dead deltas: rm-memory" "$TMP/analyze.out" || fail "expected rm-memory dead"
grep -q "no unordered write conflicts" "$TMP/analyze.out" || fail "expected no conflicts"

echo "# demo runs green"
"$LLHSC" demo > "$TMP/demo.out" || fail "demo should pass"
grep -q "12 valid products" "$TMP/demo.out" || fail "demo product count"
grep -q "all checks passed" "$TMP/demo.out" || fail "demo checks"

echo "# parse error reporting"
echo "/ { broken" > "$TMP/broken.dts"
if "$LLHSC" check "$TMP/broken.dts" 2> "$TMP/err.out"; then
  fail "broken DTS should fail"
fi
grep -q "error\[DT-" "$TMP/err.out" || fail "expected structured error message"

echo "# parse error recovery reports every error in one run"
cat > "$TMP/multi.dts" <<'EOF'
/dts-v1/;
/ {
    compatible = "acme,board"
    #address-cells = <1>;
    #size-cells = ;
    memory@0 { device_type = "memory"; reg = <0x0 0x10000>; };
    chosen { bootargs = 42; };
};
EOF
set +e
"$LLHSC" check "$TMP/multi.dts" 2> "$TMP/multi.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "multi-error check should exit 2 (got $rc)"
[ "$(grep -c 'error\[DT-PARSE\]' "$TMP/multi.err")" -eq 3 ] \
  || fail "expected exactly 3 parse errors, got: $(cat "$TMP/multi.err")"

echo "# missing input file is a structured IO error, exit 2"
set +e
"$LLHSC" check "$TMP/does-not-exist.dts" 2> "$TMP/missing.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "missing file should exit 2 (got $rc)"
grep -q "error\[IO\]" "$TMP/missing.err" || fail "expected error[IO] diagnostic"

echo "# solver budget: pipeline stays green with a generous budget"
"$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
  --model "$FIXTURES/custom-sbc.fm" --schemas "$FIXTURES/schemas" \
  --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
  --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
  --exclusive cpus --max-conflicts 100000 --solver-timeout 60 \
  > "$TMP/budget.out" || fail "budgeted pipeline should pass"
grep -q "all checks passed" "$TMP/budget.out" || fail "budgeted pipeline checks"

echo "# sat: malformed and truncated DIMACS exit 2 with a structured error"
printf 'p cnf 2 2\n1 2 0\n-1' > "$TMP/truncated.cnf"     # clause not terminated by 0
printf 'p cnf x y\n' > "$TMP/badheader.cnf"              # non-numeric problem line
printf 'p cnf 1 1\n5 0\n' > "$TMP/outofrange.cnf"        # literal out of range
for cnf in truncated badheader outofrange; do
  set +e
  "$LLHSC" sat "$TMP/$cnf.cnf" 2> "$TMP/$cnf.err"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "sat on $cnf.cnf should exit 2 (got $rc)"
  grep -q "error\[PARSE\]" "$TMP/$cnf.err" || fail "expected error[PARSE] for $cnf.cnf"
  grep -q "Fatal error" "$TMP/$cnf.err" && fail "uncaught exception for $cnf.cnf"
done
set +e
"$LLHSC" sat "$TMP/no-such.cnf" 2> "$TMP/satmissing.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "sat on missing file should exit 2 (got $rc)"
grep -q "error\[IO\]" "$TMP/satmissing.err" || fail "expected error[IO] for missing CNF"

echo "# build: duplicate YAML mapping key is a structured error, exit 2"
cat > "$TMP/dup.proj.yaml" <<EOF
core: $FIXTURES/custom-sbc.dts
core: $FIXTURES/custom-sbc.dts
EOF
set +e
"$LLHSC" build "$TMP/dup.proj.yaml" 2> "$TMP/dup.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "duplicate-key build should exit 2 (got $rc)"
grep -q 'error\[YAML\].*duplicate mapping key "core"' "$TMP/dup.err" \
  || fail "expected error[YAML] duplicate-key diagnostic"

echo "# journal + resume: resumed report is byte-identical"
run_journaled_pipeline() {
  "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
    --model "$FIXTURES/custom-sbc.fm" --schemas "$FIXTURES/schemas" \
    --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
    --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
    --exclusive cpus --journal "$TMP/run.journal" "$@"
}
run_journaled_pipeline > "$TMP/journal1.out" 2> /dev/null || fail "journaled pipeline should pass"
[ -s "$TMP/run.journal" ] || fail "journal not written"
run_journaled_pipeline --resume > "$TMP/journal2.out" 2> "$TMP/resume.err" \
  || fail "resumed pipeline should pass"
cmp -s "$TMP/journal1.out" "$TMP/journal2.out" || fail "resumed report differs from original"
grep -q "resume: replayed from journal" "$TMP/resume.err" || fail "expected resume status on stderr"

echo "# check: an include cycle stops at the nesting bound, exit 2"
# The file includes itself twice: the first error ends the expansion.
printf '/dts-v1/;\n/include/ "self.dts"\n/include/ "self.dts"\n' > "$TMP/self.dts"
set +e
"$LLHSC" check "$TMP/self.dts" > /dev/null 2> "$TMP/self.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "a self include should exit 2 (got $rc)"
[ "$(wc -l < "$TMP/self.err")" -eq 1 ] \
  && grep -q "^error\[DT-PARSE\]: .*self.dts:2:1: includes nested too deeply" "$TMP/self.err" \
  || fail "expected one nesting error at the include: $(cat "$TMP/self.err")"

echo "# check: a doubling include chain stops at the bound on includes, exit 2"
# Each of 30 levels includes the next one twice: 2^31 - 2 expansions
# without the bound, which ends the run after 1000 of them.
mkdir "$TMP/chain"
printf '/dts-v1/;\n/include/ "c1.dtsi"\n/include/ "c1.dtsi"\n' > "$TMP/chain/top.dts"
i=1
while [ "$i" -lt 30 ]; do
  printf '/include/ "c%d.dtsi"\n/include/ "c%d.dtsi"\n' $((i + 1)) $((i + 1)) \
    > "$TMP/chain/c$i.dtsi"
  i=$((i + 1))
done
printf '/ { leaf; };\n' > "$TMP/chain/c30.dtsi"
set +e
"$LLHSC" check "$TMP/chain/top.dts" > /dev/null 2> "$TMP/chain.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "a doubling include chain should exit 2 (got $rc)"
[ "$(wc -l < "$TMP/chain.err")" -eq 1 ] \
  && grep -q "^error\[DT-PARSE\]: .*\.dtsi:[0-9]*:1: more than 1000 includes in one tree" \
    "$TMP/chain.err" \
  || fail "expected one error at the bound on includes: $(cat "$TMP/chain.err")"

echo "# dtb: include errors read as check's, error[DT-PARSE], exit 2"
printf '/dts-v1/;\n/include/ "nope.dtsi"\n/ { };\n' > "$TMP/missing.dts"
for case in "self.dts:2:1: includes nested too deeply" \
  "missing.dts:2:1: cannot resolve /include/ \"nope.dtsi\""; do
  file=${case%%:*}
  set +e
  "$LLHSC" dtb "$TMP/$file" -o "$TMP/out.dtb" > /dev/null 2> "$TMP/dtb.err"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "dtb $file should exit 2 (got $rc)"
  [ "$(wc -l < "$TMP/dtb.err")" -eq 1 ] \
    && grep -q "^error\[DT-PARSE\]: .*$case\$" "$TMP/dtb.err" \
    || fail "dtb $file: expected error[DT-PARSE]: $case, got $(cat "$TMP/dtb.err")"
  [ ! -e "$TMP/out.dtb" ] || fail "dtb $file wrote a blob"
done

echo "# journal + resume: an edited /include/d file is re-checked, not replayed"
mkdir "$TMP/incl"
cp -R "$FIXTURES/." "$TMP/incl/"
run_incl_pipeline() {
  "$LLHSC" pipeline --core "$TMP/incl/custom-sbc.dts" --deltas "$TMP/incl/custom-sbc.deltas" \
    --model "$TMP/incl/custom-sbc.fm" --schemas "$TMP/incl/schemas" \
    --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
    --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
    --exclusive cpus "$@"
}
run_incl_pipeline --journal "$TMP/incl.journal" > /dev/null 2> /dev/null \
  || fail "journaled pipeline on the fixture copy should pass"
sed 's/device_type = "cpu"/device_type = "cpux"/' "$FIXTURES/cpus.dtsi" > "$TMP/incl/cpus.dtsi"
set +e
run_incl_pipeline --journal "$TMP/incl.journal" --resume > "$TMP/incl-resume.out" \
  2> "$TMP/incl-resume.err"
rc=$?
run_incl_pipeline > "$TMP/incl-fresh.out" 2> /dev/null
set -e
[ "$rc" -eq 1 ] || fail "resume after an include edit should re-check and exit 1 (got $rc)"
cmp -s "$TMP/incl-fresh.out" "$TMP/incl-resume.out" \
  || fail "resumed report differs from a fresh run of the edited copy"
grep -q "resume: nothing replayable" "$TMP/incl-resume.err" \
  || fail "expected nothing replayed after an include edit"

echo "# journal + SIGTERM: interrupted run exits 143 and is resume-able"
rm -f "$TMP/run.journal"
set +e
LLHSC_FAULT=term-after-records@2 run_journaled_pipeline > "$TMP/term.out" 2> "$TMP/term.err"
rc=$?
set -e
[ "$rc" -eq 143 ] || fail "interrupted pipeline should exit 143 (got $rc)"
grep -q "interrupted by signal 15" "$TMP/term.err" || fail "expected interrupt notice"
grep -q "rerun with --resume" "$TMP/term.err" || fail "expected resume hint"
[ -s "$TMP/run.journal" ] || fail "interrupted journal not written"
run_journaled_pipeline --resume > "$TMP/term-resume.out" 2> "$TMP/term-resume.err" \
  || fail "resume after SIGTERM should pass"
cmp -s "$TMP/journal1.out" "$TMP/term-resume.out" \
  || fail "post-SIGTERM resumed report differs from uninterrupted run"
grep -q "resume: replayed from journal" "$TMP/term-resume.err" \
  || fail "expected replay after SIGTERM (journal was not durable)"

echo "# journal at --jobs 2: a product is journaled when its last task returns"
# Task 5, the platform's semantic task, hangs in its worker, so vm1 and
# vm2 are finished while the run is still going: their two records must
# be on disk before the SIGTERM, and the resume must replay them.
run_pool_pipeline() {
  "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
    --model "$FIXTURES/custom-sbc.fm" --schemas "$FIXTURES/schemas" \
    --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
    --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
    --exclusive cpus --jobs 2 --journal "$TMP/pool.journal" "$@"
}
LLHSC_FAULT=hang-worker@5 "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" \
  --deltas "$FIXTURES/custom-sbc.deltas" --model "$FIXTURES/custom-sbc.fm" \
  --schemas "$FIXTURES/schemas" \
  --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
  --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
  --exclusive cpus --jobs 2 --journal "$TMP/pool.journal" > /dev/null 2> "$TMP/pool.err" &
pid=$!
tries=0
until [ -f "$TMP/pool.journal" ] && [ "$(wc -l < "$TMP/pool.journal")" -ge 3 ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    # SIGTERM, not SIGKILL: the run reaps its hung worker on the way out.
    kill -TERM "$pid"
    wait "$pid" || true
    fail "the journal held no two product records after 10 s of a hung --jobs 2 run"
  fi
  sleep 0.1
done
kill -TERM "$pid"
set +e
wait "$pid"
rc=$?
set -e
[ "$rc" -eq 143 ] || fail "interrupted --jobs 2 pipeline should exit 143 (got $rc)"
grep -q "journal $TMP/pool.journal synced" "$TMP/pool.err" \
  || fail "expected the journal-synced notice: $(cat "$TMP/pool.err")"
"$LLHSC" journal fsck "$TMP/pool.journal" > "$TMP/pool-fsck.out" \
  || fail "fsck of the interrupted --jobs 2 journal should exit 0"
grep -q "records: 2 " "$TMP/pool-fsck.out" \
  || fail "expected two journaled products: $(cat "$TMP/pool-fsck.out")"
run_pool_pipeline --resume > "$TMP/pool-resume.out" 2> "$TMP/pool-resume.err" \
  || fail "resume of the interrupted --jobs 2 run should pass"
grep -qx "resume: replayed from journal: vm1, vm2" "$TMP/pool-resume.err" \
  || fail "expected vm1 and vm2 replayed: $(cat "$TMP/pool-resume.err")"
cmp -s "$TMP/journal1.out" "$TMP/pool-resume.out" \
  || fail "resumed --jobs 2 report differs from the --jobs 1 report"

echo "# Ctrl-C at --jobs 2: the workers die quietly, the parent reports it once"
# A terminal sends SIGINT to the whole process group.  setsid gives the
# run a group of its own, led by the parent, to send it to.
LLHSC_FAULT=hang-worker@5 setsid "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" \
  --deltas "$FIXTURES/custom-sbc.deltas" --model "$FIXTURES/custom-sbc.fm" \
  --schemas "$FIXTURES/schemas" \
  --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
  --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
  --exclusive cpus --jobs 2 --journal "$TMP/int.journal" > /dev/null 2> "$TMP/int.err" &
pid=$!
tries=0
until [ -f "$TMP/int.journal" ] && [ "$(wc -l < "$TMP/int.journal")" -ge 3 ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    kill -TERM "$pid"
    wait "$pid" || true
    fail "the journal held no two product records after 10 s of a hung --jobs 2 run"
  fi
  sleep 0.1
done
kill -INT -"$pid"
set +e
wait "$pid"
rc=$?
set -e
[ "$rc" -eq 130 ] || fail "a Ctrl-C'd --jobs 2 pipeline should exit 130 (got $rc)"
[ "$(cat "$TMP/int.err")" = \
  "interrupted by signal 2: journal $TMP/int.journal synced; rerun with --resume" ] \
  || fail "expected the parent's interrupt line alone on stderr: $(cat "$TMP/int.err")"

echo "# journal fsck: exit-code contract (0 clean / 1 issues / 2 unusable)"
"$LLHSC" journal fsck "$TMP/run.journal" > "$TMP/fsck.out" \
  || fail "fsck of a clean journal should exit 0"
grep -q "header ok" "$TMP/fsck.out" || fail "expected a header verdict"
printf 'torn line with a bad checksum\tdeadbeef\n' >> "$TMP/run.journal"
set +e
"$LLHSC" journal fsck "$TMP/run.journal" > "$TMP/fsck-torn.out"
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "fsck of a torn journal should exit 1 (got $rc)"
grep -q "torn: 1" "$TMP/fsck-torn.out" || fail "expected the torn-line census"
set +e
"$LLHSC" journal fsck "$TMP/no-such.journal" 2> "$TMP/fsck-missing.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "fsck of a missing journal should exit 2 (got $rc)"
grep -q 'error\[IO\]' "$TMP/fsck-missing.err" || fail "expected error[IO] for a missing journal"

echo "# journal compact: drops torn lines, compacted journal is clean and resumable"
"$LLHSC" journal compact "$TMP/run.journal" > "$TMP/compact.out" \
  || fail "compact should exit 0"
grep -q "compacted" "$TMP/compact.out" || fail "expected a compaction summary"
"$LLHSC" journal fsck -q "$TMP/run.journal" || fail "compacted journal should fsck clean"
run_journaled_pipeline --resume > "$TMP/compact-resume.out" 2> "$TMP/compact-resume.err" \
  || fail "resume from the compacted journal should pass"
cmp -s "$TMP/journal1.out" "$TMP/compact-resume.out" \
  || fail "post-compact resumed report differs from uninterrupted run"
grep -q "resume: replayed from journal" "$TMP/compact-resume.err" \
  || fail "expected replay from the compacted journal"

echo "# kill mid-record: fsck reports the torn tail, resume recovers byte-identically"
rm -f "$TMP/run.journal"
set +e
(export LLHSC_FAULT=kill-mid-record@2; run_journaled_pipeline > /dev/null 2> /dev/null)
rc=$?
set -e
[ "$rc" -eq 137 ] || fail "mid-record kill should die of SIGKILL (got $rc)"
set +e
"$LLHSC" journal fsck "$TMP/run.journal" > "$TMP/fsck-killed.out"
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "fsck after a mid-record kill should exit 1 (got $rc)"
run_journaled_pipeline --resume > "$TMP/killed-resume.out" 2> "$TMP/killed-resume.err" \
  || fail "resume after a mid-record kill should pass"
cmp -s "$TMP/journal1.out" "$TMP/killed-resume.out" \
  || fail "post-kill resumed report differs from uninterrupted run"
grep -q "skipping .* torn/corrupt line" "$TMP/killed-resume.err" \
  || fail "expected the quiet-fsck torn-line notice on resume stderr"
# The first resume appended its records after the torn fragment; each
# must have started its own line, so a second resume replays them all.
run_journaled_pipeline --resume > "$TMP/killed-resume2.out" 2> "$TMP/killed-resume2.err" \
  || fail "second resume after a mid-record kill should pass"
cmp -s "$TMP/journal1.out" "$TMP/killed-resume2.out" \
  || fail "second post-kill resumed report differs from uninterrupted run"
grep -q "resume: replayed from journal: vm1, vm2, platform, partition" \
  "$TMP/killed-resume2.err" \
  || fail "second resume did not replay every record of the first resume"

echo "# journal reuse: another run's or a degraded journal is started over"
rm -f "$TMP/run.journal"
run_journaled_pipeline > /dev/null 2> /dev/null || fail "journaled pipeline (inputs A) should pass"
for prior in "other inputs" "degraded"; do
  if [ "$prior" = degraded ]; then
    rm -f "$TMP/run.journal"
    LLHSC_FAULT=enospc@2 run_journaled_pipeline --max-conflicts 100000 \
      > /dev/null 2> /dev/null || fail "degraded journaled run should pass"
  fi
  set +e
  (export LLHSC_FAULT=kill-after-records@3
   run_journaled_pipeline --max-conflicts 100000 > /dev/null 2> /dev/null)
  rc=$?
  set -e
  [ "$rc" -eq 137 ] || fail "record-3 kill after $prior should die of SIGKILL (got $rc)"
  run_journaled_pipeline --max-conflicts 100000 --resume > /dev/null 2> "$TMP/reuse.err" \
    || fail "resume after $prior should pass"
  grep -q "resume: replayed from journal: vm1, vm2, platform$" "$TMP/reuse.err" \
    || fail "resume after $prior did not replay the killed run's three records"
done

echo "# journal: a non-journal file is refused with error[IO] and left untouched"
printf 'my notes\nnot a journal\n' > "$TMP/notes.txt"
cp "$TMP/notes.txt" "$TMP/notes.orig"
set +e
"$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
  --model "$FIXTURES/custom-sbc.fm" --vm "memory,cpu@0" --journal "$TMP/notes.txt" \
  > /dev/null 2> "$TMP/notes.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--journal on a non-journal file should exit 2 (got $rc)"
grep -q 'error\[IO\]' "$TMP/notes.err" || fail "expected error[IO] for a non-journal file"
cmp -s "$TMP/notes.orig" "$TMP/notes.txt" || fail "the non-journal file was modified"

echo "# retry: escalation recovers injected Unknown verdicts"
"$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
  --model "$FIXTURES/custom-sbc.fm" --schemas "$FIXTURES/schemas" \
  --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
  --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
  --exclusive cpus --unsound force-unknown:3 --retry 3 > "$TMP/retry.out" \
  || fail "retrying pipeline should pass"
grep -q "all checks passed" "$TMP/retry.out" || fail "retry pipeline checks"
grep -q "escalation: .* recovered" "$TMP/retry.out" || fail "expected escalation summary"
grep -q "inconclusive" "$TMP/retry.out" && fail "escalation left inconclusive verdicts"

echo "# run flags: a bad --unsound or --retry is a structured error, exit 2"
for flag in "--unsound bogus:1" "--retry 1"; do
  set +e
  # shellcheck disable=SC2086 # the flag and its value are two words
  "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
    --model "$FIXTURES/custom-sbc.fm" --vm "memory,cpu@0" $flag \
    > /dev/null 2> "$TMP/badflag.err"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "pipeline $flag should exit 2 (got $rc)"
  grep -q '^error\[[A-Z-]*\]' "$TMP/badflag.err" || fail "expected a structured error for $flag"
  grep -q "Fatal error" "$TMP/badflag.err" && fail "uncaught exception for $flag"
done

echo "# parallel: --jobs 4 reports are byte-identical to --jobs 1"
run_pipeline_at() {
  njobs=$1; shift
  "$LLHSC" pipeline --core "$FIXTURES/custom-sbc.dts" --deltas "$FIXTURES/custom-sbc.deltas" \
    --model "$FIXTURES/custom-sbc.fm" --schemas "$FIXTURES/schemas" \
    --vm "memory,cpu@0,uart@20000000,uart@30000000,veth0" \
    --vm "memory,cpu@1,uart@20000000,uart@30000000,veth1" \
    --exclusive cpus --jobs="$njobs" "$@"
}
run_pipeline_at 1 > "$TMP/j1.out" || fail "--jobs 1 pipeline should pass"
run_pipeline_at 4 > "$TMP/j4.out" || fail "--jobs 4 pipeline should pass"
cmp -s "$TMP/j1.out" "$TMP/j4.out" || fail "--jobs 4 report differs from --jobs 1"
run_pipeline_at 1 --certify > "$TMP/j1c.out" || fail "--jobs 1 --certify should pass"
run_pipeline_at 4 --certify > "$TMP/j4c.out" || fail "--jobs 4 --certify should pass"
cmp -s "$TMP/j1c.out" "$TMP/j4c.out" || fail "--certify report differs across job counts"
run_pipeline_at 1 --unsound force-unknown:3 --retry 3 > "$TMP/j1r.out" \
  || fail "--jobs 1 --retry pipeline should pass"
run_pipeline_at 4 --unsound force-unknown:3 --retry 3 > "$TMP/j4r.out" \
  || fail "--jobs 4 --retry pipeline should pass"
cmp -s "$TMP/j1r.out" "$TMP/j4r.out" || fail "--retry report differs across job counts"

echo "# parallel: --jobs 0 auto-detects cores, report identical to --jobs 1"
run_pipeline_at 0 > "$TMP/j0.out" || fail "--jobs 0 pipeline should pass (auto-detect)"
cmp -s "$TMP/j1.out" "$TMP/j0.out" || fail "--jobs 0 report differs from --jobs 1"

echo "# parallel: negative --jobs is rejected with a structured error"
# the function passes --jobs=-1 glued: cmdliner reads a bare -1 as a flag
set +e
run_pipeline_at -1 2> "$TMP/jneg.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--jobs -1 should exit 2 (got $rc)"
grep -q "jobs" "$TMP/jneg.err" || fail "expected --jobs validation message"

echo "# supervision: SIGKILLed workers are reassigned, report byte-identical"
# env assignments live in subshells: VAR=x fn leaks the var in some shells
(export LLHSC_FAULT=kill-worker@0; run_pipeline_at 2 > "$TMP/skill.out" 2> "$TMP/skill.err") \
  || fail "pipeline with killed worker should still pass"
cmp -s "$TMP/j1.out" "$TMP/skill.out" || fail "killed-worker report differs from --jobs 1"
grep -q "error\[WORKER\]" "$TMP/skill.out" && fail "self-healing pool left error[WORKER]"
grep -q "reassigning task 0 (" "$TMP/skill.err" || fail "expected task 0's reassignment notice"

echo "# supervision: kills under --certify --retry stay byte-identical"
run_pipeline_at 1 --certify --unsound force-unknown:3 --retry 3 > "$TMP/j1cr.out" \
  || fail "--jobs 1 --certify --retry should pass"
(export LLHSC_FAULT=kill-worker@1; run_pipeline_at 2 --certify --unsound force-unknown:3 \
  --retry 3 > "$TMP/skillcr.out" 2> "$TMP/skillcr.err") \
  || fail "killed-worker --certify --retry should pass"
cmp -s "$TMP/j1cr.out" "$TMP/skillcr.out" \
  || fail "killed-worker --certify --retry report differs from --jobs 1"
grep -q "reassigning task 1 (" "$TMP/skillcr.err" || fail "expected task 1's reassignment notice"

echo "# supervision: hung worker hits the task deadline and its task is reassigned"
(export LLHSC_FAULT=hang-worker@0; run_pipeline_at 2 --task-deadline 1 \
  > "$TMP/hang.out" 2> "$TMP/hang.err") || fail "pipeline with hung worker should still pass"
cmp -s "$TMP/j1.out" "$TMP/hang.out" || fail "hung-worker report differs from --jobs 1"
grep -q "deadline" "$TMP/hang.err" || fail "expected deadline-expiry notice on stderr"
grep -q "error\[WORKER\]" "$TMP/hang.out" && fail "hung worker left error[WORKER]"

echo "# supervision: respawn budget exhaustion falls back to in-process checking"
(export LLHSC_FAULT=kill-worker@0; run_pipeline_at 2 --max-respawns 0 \
  > "$TMP/exhaust.out" 2> "$TMP/exhaust.err") \
  || fail "respawn-exhausted pipeline should still pass"
cmp -s "$TMP/j1.out" "$TMP/exhaust.out" || fail "respawn-exhausted report differs from --jobs 1"
grep -q "exhausted" "$TMP/exhaust.err" || fail "expected the respawn-budget notice"

echo "# supervision: rlimit OOM degrades to error[RESOURCE], exit 2"
set +e
(export LLHSC_FAULT=oom-worker@0; run_pipeline_at 2 --mem-limit 512 \
  > "$TMP/oom.out" 2> "$TMP/oom.err")
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "OOM-injected pipeline should exit 2 (got $rc)"
grep -q "error\[RESOURCE\]" "$TMP/oom.out" || fail "expected error[RESOURCE] diagnostic"
grep -q "error\[WORKER\]" "$TMP/oom.out" && fail "OOM should degrade to RESOURCE, not WORKER"
grep -q "Fatal error" "$TMP/oom.err" && fail "OOM must not crash the checker"

echo "# supervision: flag validation"
set +e
run_pipeline_at 2 --task-deadline 0 2> "$TMP/baddl.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--task-deadline 0 should exit 2 (got $rc)"
grep -q "task-deadline" "$TMP/baddl.err" || fail "expected --task-deadline validation message"
set +e
run_pipeline_at 2 --mem-limit 0 2> "$TMP/badmem.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--mem-limit 0 should exit 2 (got $rc)"
grep -q "mem-limit" "$TMP/badmem.err" || fail "expected --mem-limit validation message"

echo "# fault schedule: a malformed LLHSC_FAULT stops every subcommand, exit 2"
for schedule in enopsc@2 kill-worker kill-worker@-1 kill-worker@x; do
  set +e
  (export LLHSC_FAULT="$schedule"
   "$LLHSC" check "$FIXTURES/custom-sbc.dts" > "$TMP/badfault.out" 2> "$TMP/badfault.err")
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "LLHSC_FAULT=$schedule should exit 2 (got $rc)"
  [ ! -s "$TMP/badfault.out" ] || fail "LLHSC_FAULT=$schedule still ran the check"
  [ "$(wc -l < "$TMP/badfault.err")" -eq 1 ] || fail "want one error line for $schedule"
  grep -q "^error\[FAULT\]: .*\"$schedule\"" "$TMP/badfault.err" \
    || fail "error line does not name $schedule"
done
(export LLHSC_FAULT=""; "$LLHSC" check "$FIXTURES/custom-sbc.dts" > /dev/null) \
  || fail "an empty LLHSC_FAULT must inject nothing"

echo "# parallel: journal written at --jobs 4 resumes at --jobs 1"
run_pipeline_at 4 --journal "$TMP/par.journal" > "$TMP/par4.out" 2> /dev/null \
  || fail "journaled --jobs 4 pipeline should pass"
[ -s "$TMP/par.journal" ] || fail "parallel journal not written"
run_pipeline_at 1 --journal "$TMP/par.journal" --resume > "$TMP/par1.out" 2> "$TMP/par.err" \
  || fail "cross-job-count resume should pass"
cmp -s "$TMP/par4.out" "$TMP/par1.out" || fail "cross-job-count resumed report differs"
grep -q "resume: replayed from journal" "$TMP/par.err" || fail "expected resume status on stderr"

echo "all CLI tests passed"
