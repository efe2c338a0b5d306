GO ?= go

# Packages with dedicated concurrency stress tests; the full suite under
# -race is slow, so check races where the locks actually live.
RACE_PKGS = ./internal/core ./internal/buffer ./internal/db ./internal/trace ./internal/server ./internal/oplog

.PHONY: check build vet test race perfbench-test crash fuzz-crash wal-crash fuzz-wal-crash bench concurrency metrics bulkload txn misses serve serveload oplog telemetry perfbench-smoke clean

check: vet build test race crash perfbench-test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The repository benchmark is its own module (perfbench/), so the
# ./... targets above do not reach it.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# Power-cut simulation: every write prefix of a workload (torn pages
# included) must recover to the last-synced state or fail loudly.
crash:
	$(GO) test -count=1 -run 'Crash|Fault|Recover|Durab|Sync' ./internal/core ./internal/pagefile

fuzz-crash:
	$(GO) test -run=NONE -fuzz=FuzzTableCrashRecovery -fuzztime=30s ./internal/core

# WAL crash matrix: consistent power cuts across the page store AND the
# log (torn page writes, torn log appends, mid-checkpoint cuts) must
# recover every acknowledged commit or fail loudly.
wal-crash:
	$(GO) test -count=1 -run 'WAL|TornTail|Txn' ./internal/core ./internal/wal

fuzz-wal-crash:
	$(GO) test -run=NONE -fuzz=FuzzWALCrashRecovery -fuzztime=30s ./internal/core

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

concurrency:
	$(GO) run ./cmd/hashbench -quick concurrency

# Instrumented workload; refreshes BENCH_metrics.json with the full
# metric registry (splits, chain probes, cache behaviour, sync latency).
metrics:
	$(GO) run ./cmd/hashbench metrics

# Batched write pipeline vs looped Put; refreshes BENCH_bulkload.json
# and fails if PutBatch regresses below looped Put (gate 1.0). The full
# 1M-key sweep; CI runs the 100k smoke variant.
bulkload:
	$(GO) run ./cmd/hashbench -check 1.0 bulkload

# Durable single Put via WAL commit vs the full sync protocol; refreshes
# BENCH_txn.json and fails if the WAL is not at least 10x cheaper on the
# simulated cost model (the acceptance bar).
txn:
	$(GO) run ./cmd/hashbench -check 10 txn

# Negative-lookup latency vs overflow-chain depth, tag filter on vs off,
# plus a cold scan through the vectored chain read-ahead; refreshes
# BENCH_misses.json and fails if a filtered depth-4 miss costs more than
# 2x a depth-0 miss or the scan prefetched nothing.
misses:
	$(GO) run ./cmd/hashbench -check 2.0 misses

# Run the sharded network front end on its defaults (8 in-memory
# shards, WAL on, port 7700, ops dashboard on 7701). Talk to it with
# `printf 'PUT k v\r\nGET k\r\n' | nc localhost 7700`.
serve:
	$(GO) run ./cmd/dbserver -addr :7700 -telemetry :7701

# Network front end benchmark: pipelined write throughput at 1 vs 8
# shards over real TCP plus a mixed workload with window latency
# percentiles; refreshes BENCH_serve.json and fails if 8 shards buy
# less than 3x the single-shard aggregate write throughput.
serveload:
	$(GO) run ./cmd/hashbench -check 3.0 serveload

# Op-ledger overhead contract: the serveload mixed phase ledger-off vs
# ledger-on; refreshes BENCH_obs.json and fails if attribution costs
# more than 5% of mixed throughput or the exemplars' phase sums stray
# more than 10% from end-to-end latency.
oplog:
	$(GO) run ./cmd/hashbench -check 0.95 oplog

# Telemetry smoke: start a live traced workload with the telemetry
# server up, scrape every endpoint (including a 1s CPU profile) and
# watch it through dbcli hashmon; fails on any non-200 or empty body.
telemetry:
	$(GO) test -count=1 -run TestTelemetryEndToEnd -v .

# Benchmark smoke: a 2-second hot-read run of the repository benchmark
# (perfbench, built into .bench_build/); fails unless the run exits 0
# and its result line reports no failed operations.
perfbench-smoke:
	out=$$(bash perfbench/run.sh --workload hot-read --seed 1 --seconds 2 --trace 0) && \
		echo "$$out" | grep -q '"failed":0[,}]'

clean:
	rm -f BENCH_concurrency.json BENCH_metrics.json BENCH_bulkload.json BENCH_txn.json BENCH_serve.json BENCH_misses.json BENCH_obs.json
