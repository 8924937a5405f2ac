# Single source of truth for the checks CI runs: .github/workflows/ci.yml
# invokes exactly these targets, so a green `make ci` locally means a green
# pipeline.

GO ?= go

.PHONY: build test test-race bench bench-smoke bench-selftest bench-json bench-diff lint fmt vet api-check api-update serve-smoke chaos-smoke overload-smoke ingest-smoke docs-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Full benchmark pass (slow; regenerates every experiment table).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .
	$(GO) run ./cmd/gsmbench -quick

# Seconds-long smoke pass for CI: one iteration per benchmark plus a
# time-boxed gsmbench run.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) run ./cmd/gsmbench -quick -timeout 30s

# Self-test of the end-to-end benchmark: gsmdbench is a nested module, so
# `go test ./...` never reaches it, yet it imports the read path (FreezeFull,
# SnapshotBuilds, engine.EvalGraph, PreparedQuery.EvalRange). Its tests
# keep it building and answering correctly against this checkout.
bench-selftest:
	cd gsmdbench && $(GO) test .

# Machine-readable benchmark report (CI uploads it as a BENCH_*.json
# artifact so the perf trajectory accumulates run over run).
bench-json:
	$(GO) run ./cmd/gsmbench -quick -timeout 30s -json > BENCH_smoke.json

# Per-experiment wall-clock delta between two bench-json reports (CI feeds
# it the previous run's artifact): make bench-diff OLD=a.json NEW=b.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# Public-API surface guard: the exported facade (repro package) must match
# the committed api.txt golden, so PRs can't silently break downstream
# users. After an intentional API change: make api-update && commit api.txt.
api-check:
	$(GO) run ./cmd/apicheck

api-update:
	$(GO) run ./cmd/apicheck -write

# End-to-end serving smoke: build gsmd+gsmload, boot the demo server on a
# free port, replay requests (byte-for-byte verified against the embedded
# session path), then drain gracefully. See scripts/server-smoke.sh.
serve-smoke:
	sh scripts/server-smoke.sh

# Crash/fault drill: boot gsmd with a state directory and fault injection,
# replay verified load under injected errors/panics/latency, tear a WAL
# append, SIGKILL, and prove byte-for-byte registry recovery. See
# scripts/chaos-smoke.sh.
chaos-smoke:
	sh scripts/chaos-smoke.sh

# Relational bulk-ingestion smoke: generate a CSV+SQLite dataset with
# `gsm genrel`, ingest both with `gsm ingest` (byte-for-byte equal), then
# stream the same payloads through gsmd's POST /v1/graphs/{name}/ingest
# and verify the NDJSON contract, idempotent replay and a certain-answer
# query over the landed graph. See scripts/ingest-smoke.sh.
ingest-smoke:
	sh scripts/ingest-smoke.sh

# Overload/fairness drill: boot gsmd with one admission slot, a bounded
# queue and a memory budget; assert a polite tenant keeps a healthy share
# of its isolated goodput under a greedy flood (byte-for-byte verified),
# exercise open-loop Poisson arrivals, and check resident bytes stay within
# budget. See scripts/overload-smoke.sh.
overload-smoke:
	sh scripts/overload-smoke.sh

# Documentation link check: every local markdown link in README.md and
# docs/*.md must resolve to an existing file.
docs-check:
	$(GO) test -run TestDocsLinks .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint: fmt vet

ci: build lint api-check docs-check test-race serve-smoke chaos-smoke overload-smoke ingest-smoke bench-smoke bench-selftest bench-json
