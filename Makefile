GO ?= go
FUZZTIME ?= 15s

.PHONY: build test test-race vet fmt-check bench bench-all fuzz-short loadtest chaos repair-smoke cluster-smoke module-smoke examples check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: certifies the batch driver, the synchronized
# metrics sinks, and every other concurrent path.
test-race:
	$(GO) test -race ./...

# Short native-fuzzing pass over the frontend (lexer, parser, and the
# name check against the resolver). The targets also run their seed
# corpora as plain tests under `make test`.
fuzz-short:
	$(GO) test -fuzz=FuzzLex -fuzztime=$(FUZZTIME) ./internal/lexer/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/parser/
	$(GO) test -fuzz=FuzzCheck -fuzztime=$(FUZZTIME) ./internal/sym/

# End-to-end load test of the uafserve daemon: builds the real
# binaries, boots the server, and drives it with concurrent clients
# (byte-identity vs the CLI, 429 under overload, dedup, graceful
# SIGTERM drain). Tagged so `make test` stays fast.
loadtest:
	$(GO) test -race -tags loadtest -run TestLoadEndToEnd -v ./internal/server/

# Chaos drill: the fixed-seed fault-injection matrix (disk corruption,
# torn writes, worker panics, admission storms, kill-and-restart cache
# recovery, watch-mode wedge/recovery) under the race detector. See
# docs/RECOVERY.md for the failure catalog these tests enforce.
chaos:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'Chaos|Recover|Quarantine|Torn|Wedge|Degraded|HealthzComponents|WriteFailure' \
		./internal/cache/ ./internal/watch/ ./internal/server/ ./internal/repair/ ./internal/cluster/

# Round-trip smoke of the repair API: boots the real uafserve, repairs
# a corpus file over POST /v1/repair, applies the served unified diff
# with patch(1), re-analyzes the result with the CLI, and asserts zero
# warnings. See docs/REPAIR.md.
repair-smoke:
	sh scripts/repair-smoke.sh

# Cluster smoke: boots a coordinator + 2 workers from the real binary,
# asserts batch byte-identity with a single process through the edge,
# then kills both workers mid-batch and asserts the stream degrades
# visibly (one flagged line per unfinished file) instead of going
# silently short, and last checks that a forged cache entry PUT to the
# edge or a worker is refused and never served after a restart. See
# docs/CLUSTER.md.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# Module smoke: boots a coordinator + 2 workers, analyzes a 3-file
# module in one mode=module batch, edits one callee over /v1/delta and
# asserts the cross-file caller's warnings are re-reported (and cleared
# once the callee synchronizes), then checks the whole module cell was
# routed to a single worker with unit-memo reuse. See
# docs/INTERPROCEDURAL.md.
module-smoke:
	sh scripts/module-smoke.sh

# Runs every program under examples/ from the repository root (several
# read testdata/); fails on the first non-zero exit.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null; \
	done

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench='BenchmarkExplore(Seq|Par)|BenchmarkAnalyzeCached' -benchmem .

# The full benchmark sweep (every table, figure and ablation).
bench-all:
	$(GO) test -bench=. -benchmem ./...

check: build vet fmt-check test test-race
