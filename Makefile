# Convenience targets; scripts/check.sh is the canonical CI gate.

.PHONY: check build test race fuzz-seeds cover bench benchdiff

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -timeout 1800s ./internal/bo ./internal/gp ./internal/mat ./internal/nn ./internal/serve ./internal/core ./internal/obs ./internal/fleet ./internal/wal ./internal/loadgen ./internal/profile ./cmd/loadserve

fuzz-seeds:
	go test -run 'Fuzz' ./internal/core ./internal/serve ./internal/obs ./internal/wal ./internal/profile

cover:
	go test -cover ./internal/mat ./internal/nn ./internal/bo ./internal/gp ./internal/obs ./internal/core ./internal/serve ./internal/fleet ./internal/wal ./internal/loadgen ./internal/profile

bench:
	./scripts/bench.sh

benchdiff:
	./scripts/benchdiff.sh
