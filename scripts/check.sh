#!/usr/bin/env bash
# check.sh — the repo's CI gate, runnable locally via `make check`.
#
#   1. tier-1: build, vet, full test suite, -race on the concurrency-bearing
#      packages (see ROADMAP.md); vet again for arm64, so the Go fallback of
#      internal/mat's amd64 assembly kernels keeps compiling; and no fused
#      multiply-add in arm64 builds of internal/mat and internal/nn, so the
#      Go reference kernels round the same way on every architecture
#   2. fuzz seed corpora in regression mode (committed seeds only, no
#      fuzzing engine time)
#   3. perfbench smoke tests: the benchmark harness is its own module
#      (perfbench/go.mod) compiled against this checkout, so an API change
#      that breaks it shows up here, not only in a benchmark run
#   4. the paper's Fig. 10 regenerates byte for byte: quick scale, serial
#      searches, compared with report/fig10.txt
#   5. every benchmark under internal/ runs once, so a benchmark that fails
#      at run time (say, after an API change it calls) breaks CI and not
#      the next benchmarking session
#   6. log hygiene: no package under internal/ may import the global "log"
#      package — structured logging goes through log/slog via internal/obs
#   7. gofmt: every Go file outside hidden directories is gofmt-clean
#   8. coverage report for the matrix kernels, network, search (BO and GP),
#      observability, framework, fleet, WAL, serving, loadgen and profile
#      layers, with hard floors on every one of them
set -euo pipefail
cd "$(dirname "$0")/.."

MAT_COVER_FLOOR=92
NN_COVER_FLOOR=90
BO_COVER_FLOOR=90
GP_COVER_FLOOR=85
CORE_COVER_FLOOR=80
OBS_COVER_FLOOR=80
FLEET_COVER_FLOOR=80
WAL_COVER_FLOOR=81
SERVE_COVER_FLOOR=80
LOADGEN_COVER_FLOOR=80
PROFILE_COVER_FLOOR=80

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== tier-1: build =="
go build ./...

echo "== tier-1: vet =="
go vet ./...

echo "== vet for arm64 (the non-amd64 kernel fallback) =="
GOARCH=arm64 go vet ./...

echo "== arm64: no fused multiply-add in internal/mat and internal/nn =="
# Go may fuse x*y + z into one FMA on arm64 (and other non-amd64 ports),
# rounding once where amd64 rounds twice, so the Go kernels would give other
# bits there. These packages write such products as float64(x*y), which
# forbids fusion; disassemble arm64 test binaries and fail on any fused op in
# a function that is not a Test (the tests' ref* kernels are checked too).
for pkg in mat nn; do
    GOARCH=arm64 go test -c -o "$tmp/$pkg.arm64.test" "./internal/$pkg"
    fused=$(go tool objdump "$tmp/$pkg.arm64.test" | awk -v p="loaddynamics/internal/$pkg." '
        /^TEXT / { fn = $2; own = index(fn, p) == 1 && substr(fn, length(p) + 1, 4) != "Test" }
        own && /[[:space:]]F(N)?M(ADD|SUB)[DS][[:space:]]/ { n[fn]++ }
        END { for (f in n) print n[f], f }')
    if [ -n "$fused" ]; then
        echo "FAIL: fused multiply-add in arm64 internal/$pkg (count, function):" >&2
        echo "$fused" >&2
        exit 1
    fi
done
echo "ok: no fused multiply-add in arm64 internal/mat or internal/nn"

echo "== tier-1: tests =="
go test ./...

echo "== tier-1: race detector =="
go test -race -timeout 1800s ./internal/bo ./internal/gp ./internal/mat ./internal/nn ./internal/serve ./internal/core ./internal/obs ./internal/fleet ./internal/wal ./internal/loadgen ./internal/profile ./cmd/loadserve

echo "== fuzz seed corpora (regression mode) =="
go test -run 'Fuzz' ./internal/core ./internal/serve ./internal/obs ./internal/wal ./internal/profile

echo "== perfbench smoke tests =="
(cd perfbench && GOWORK=off go test ./...)

echo "== paper: Fig. 10 regenerates byte for byte =="
# report/ was written by serial searches: the default Parallel would make
# the LoadDynamics rows depend on the host's core count.
go run ./cmd/experiments -scale quick -only fig10 -serial -out "$tmp" >"$tmp/log" 2>&1 ||
    { cat "$tmp/log" >&2; exit 1; }
if ! cmp "$tmp/fig10.txt" report/fig10.txt; then
    echo "FAIL: regenerated fig10.txt differs from report/fig10.txt" >&2
    diff "$tmp/fig10.txt" report/fig10.txt >&2 || true
    exit 1
fi
echo "ok: fig10.txt matches report/fig10.txt"

echo "== benchmarks, one iteration each =="
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "== log hygiene =="
# Structured logging only: internal/ packages must use log/slog (wired via
# internal/obs), never the global "log" package. cmd/ is exempt.
if grep -rn --include='*.go' -E '^\s*(stdlog\s+)?"log"$' internal/; then
    echo "FAIL: internal/ package imports the global \"log\" package; use log/slog" >&2
    exit 1
fi
echo "ok: no internal/ package imports the global \"log\" package"

echo "== gofmt =="
# Hidden directories (.git, the .bench_build cache) hold no project sources.
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok: gofmt -l lists no files"

echo "== coverage =="
fail=0
for pkg in internal/mat internal/nn internal/bo internal/gp internal/obs internal/core internal/serve internal/fleet internal/wal internal/loadgen internal/profile; do
    pct=$(go test -cover "./$pkg" | awk '{for (i=1;i<=NF;i++) if ($i ~ /%$/) {sub(/%/,"",$i); print $i; exit}}')
    echo "coverage ./$pkg: ${pct}%"
    floor=
    case "$pkg" in
        internal/mat) floor=$MAT_COVER_FLOOR ;;
        internal/nn) floor=$NN_COVER_FLOOR ;;
        internal/bo) floor=$BO_COVER_FLOOR ;;
        internal/gp) floor=$GP_COVER_FLOOR ;;
        internal/core) floor=$CORE_COVER_FLOOR ;;
        internal/obs) floor=$OBS_COVER_FLOOR ;;
        internal/fleet) floor=$FLEET_COVER_FLOOR ;;
        internal/wal) floor=$WAL_COVER_FLOOR ;;
        internal/serve) floor=$SERVE_COVER_FLOOR ;;
        internal/loadgen) floor=$LOADGEN_COVER_FLOOR ;;
        internal/profile) floor=$PROFILE_COVER_FLOOR ;;
    esac
    if [ -n "$floor" ]; then
        if awk -v p="$pct" -v f="$floor" 'BEGIN{exit !(p < f)}'; then
            echo "FAIL: ./$pkg coverage ${pct}% is below the ${floor}% floor" >&2
            fail=1
        fi
    fi
done
exit $fail
