#!/usr/bin/env bash
# ci.sh — the repository's correctness gate. Run before every commit (and
# from scripts/bench.sh, which adds the timing/benchmark layer on top):
#
#   1. gofmt           — no unformatted files
#   2. go vet          — static checks
#   3. go build        — every package, including examples and cmds
#   4. go test -race   — the full suite under the race detector, then the
#                        benchmark module's own tests (perfbench/ is a
#                        separate Go module, so ./... does not reach it:
#                        comparator, stats, calibration and output checks)
#   5. fuzz smoke      — 10s of coverage-guided fuzzing per fuzz target,
#                        on top of the checked-in corpora
#   6. diff sweep      — 200 fresh seeds through the engine-vs-reference
#                        differential harness (DESIGN.md §9), each seed also
#                        checkpointed/restored mid-run (restore-equivalence)
#   7. faulted sweep   — 100 seeds with injected fault schedules, their
#                        restore-equivalence variant, the planted
#                        fault-swallowing mutation that the sweep must catch
#                        (DESIGN.md §10), and the diff-bisection harness
#                        localizing a planted mutation to its exact first
#                        divergent cycle (DESIGN.md §13)
#   8. fault package   — go vet + race-enabled unit tests for
#                        internal/faultinject
#   9. allocation gate — CoreInstructionRate + F7_TailLatency +
#                        UncontendedLock allocs/op must stay within 10% of
#                        scripts/alloc_baseline.txt (the zero-alloc hot
#                        paths must not silently regrow heap traffic)
#  10. sharded golden  — a small `nocsim -scale -quick` run; RunScale fails
#                        internally unless the sharded scheduler's output is
#                        byte-identical to the serial oracle, so scheduler
#                        regressions fail fast here
#  11. lock sweep      — a CI-sized `nocsim -locks -quick` contention run
#                        (RunLocks fails internally on any exclusion
#                        violation, lost wakeup, or shard-determinism
#                        break), plus a 60-seed lock-ordering differential
#                        sweep with the planted LIFO-handoff mutation that
#                        the sweep must catch (DESIGN.md §14)
#  12. snapshot golden — a quick checkpointed endurance run (`nocsim
#                        -endurance`): resuming from the last emitted
#                        checkpoint must reproduce the straight-through
#                        run's summary and hash exactly
#  13. serving smoke   — a CI-sized `nocsim -serve -quick` sweep, including
#                        overload cells (load 1.3): RunServe fails
#                        internally on any serial-vs-sharded byte
#                        difference, conservation break, or if no overload
#                        cell ever refused a request (DESIGN.md §15)
#  14. golden diff     — `nocsim -all` must be byte-identical to the
#                        committed results_full.txt (skip with SKIP_GOLDEN=1
#                        when the caller performs its own golden run)
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== perfbench module tests =="
go test -C perfbench ./...

echo "== fuzz smoke (10s per target) =="
go test -run '^$' -fuzz '^FuzzAsmParse$' -fuzztime 10s ./internal/asm
go test -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 10s ./internal/snapshot
go test -run '^$' -fuzz '^FuzzMonitorOps$' -fuzztime 10s ./internal/monitor

echo "== differential sweep (200 seeds) + restore equivalence =="
NOCS_DIFF_N=200 go test -count=1 \
    -run '^(TestDifferentialSweep|TestRestoreEquivalenceSweep)$' \
    ./internal/refmodel/diff

echo "== faulted differential sweep (100 seeds) + planted mutation + bisection =="
NOCS_DIFF_N=100 go test -count=1 \
    -run '^(TestFaultedDifferentialSweep|TestFaultMutationIsCaught|TestFaultedRestoreEquivalenceSweep|TestBisectLocalizesPlantedMutation)$' \
    ./internal/refmodel/diff

echo "== fault-injection package (vet + race) =="
go vet ./internal/faultinject
go test -race -count=1 ./internal/faultinject

echo "== allocation gate (allocs/op within 10% of scripts/alloc_baseline.txt) =="
go test -run '^$' -bench '^(BenchmarkCoreInstructionRate|BenchmarkF7_TailLatency|BenchmarkUncontendedLock)$' \
    -benchmem -benchtime 1x . > "$TMP/allocgate.txt"
awk '
    NR==FNR { if ($0 !~ /^#/ && NF == 2) base[$1] = $2; next }
    /^Benchmark/ && /allocs\/op/ {
        name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
        a = ""
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
        if (!(name in base)) { printf "FAIL: no baseline for %s in scripts/alloc_baseline.txt\n", name; bad = 1; next }
        lim = base[name] * 1.10
        printf "   %-22s %8d allocs/op (baseline %d, limit %.0f)\n", name, a, base[name], lim
        if (a + 0 > lim) { printf "FAIL: %s allocs/op regressed: %d > %.0f\n", name, a, lim; bad = 1 }
        seen[name] = 1
    }
    END {
        for (n in base) if (!(n in seen)) { printf "FAIL: baseline benchmark %s did not run\n", n; bad = 1 }
        exit bad
    }
' scripts/alloc_baseline.txt "$TMP/allocgate.txt"

echo "== sharded golden: nocsim -scale -quick (serial vs sharded byte-identity) =="
go build -o "$TMP/nocsim" ./cmd/nocsim
"$TMP/nocsim" -scale -quick -shards 4 -workers 4 | grep '^S1 stats:'

echo "== lock sweep smoke: nocsim -locks -quick + lock-ordering differential sweep =="
"$TMP/nocsim" -locks -quick | grep '^L1 shards:' | sed 's/^/   /'
NOCS_DIFF_N=60 go test -count=1 \
    -run '^(TestLockDifferentialSweep|TestHandoffMutationIsCaught)$' \
    ./internal/refmodel/diff

echo "== snapshot golden: nocsim -endurance checkpoint/resume hash identity =="
"$TMP/nocsim" -endurance -quick -checkpoint-every 30000 \
    -checkpoint "$TMP/e1.ckpt" > "$TMP/e1.txt" 2>/dev/null
"$TMP/nocsim" -endurance -quick -resume "$TMP/e1.ckpt" > "$TMP/e1_resume.txt" 2>/dev/null
grep '^E1 stats:' "$TMP/e1.txt" "$TMP/e1_resume.txt" | sed 's/^/   /'
if ! diff -u <(grep -v '^E1 stats:' "$TMP/e1.txt") \
             <(grep -v '^E1 stats:' "$TMP/e1_resume.txt"); then
    echo "FAIL: resumed endurance summary differs from straight-through run" >&2
    exit 1
fi
h0=$(grep -o 'hash=[0-9a-f]*' "$TMP/e1.txt")
h1=$(grep -o 'hash=[0-9a-f]*' "$TMP/e1_resume.txt")
if [ -z "$h0" ] || [ "$h0" != "$h1" ]; then
    echo "FAIL: resume hash ${h1:-<none>} != straight-through hash ${h0:-<none>}" >&2
    exit 1
fi

echo "== serving smoke: nocsim -serve -quick (sweep incl. overload cells) =="
"$TMP/nocsim" -serve -quick > "$TMP/serve.txt"
grep '^SV1 stats:' "$TMP/serve.txt" | sed 's/^/   /'
if ! grep '^SV1 stats:' "$TMP/serve.txt" | grep -q 'load=1\.30'; then
    echo "FAIL: serving smoke ran no overload cell" >&2
    exit 1
fi

if [ "${SKIP_GOLDEN:-0}" != "1" ]; then
    echo "== determinism: nocsim -all vs results_full.txt =="
    "$TMP/nocsim" -all > "$TMP/all.txt"
    if ! diff -u results_full.txt "$TMP/all.txt" > "$TMP/diff.txt"; then
        echo "FAIL: nocsim -all output differs from committed golden:" >&2
        head -40 "$TMP/diff.txt" >&2
        exit 1
    fi
    echo "   identical"
fi

echo "ci: all green"
