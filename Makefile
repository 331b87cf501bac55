GO ?= go

.PHONY: build test race vet bench bench-suite bench-compare bench-json bench-udp bench-wal bench-zipf bench-ro bench-shard chaos check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Under -race the root, chaos, transport, faultnet, coordinator and replica
# suites run with released messages poisoned instead of pooled
# (message.SetPoisonOnRelease), so a use-after-release is loud.
race:
	$(GO) test -race -count=1 . ./internal/...

vet:
	$(GO) vet ./...

# Seeded fault-injection run under the race detector: ambient loss, a
# partition window, one replica crash+restart; the checker must accept the
# history and the crash window must force slow-path commits. Set
# CHAOS_ARTIFACT_DIR to keep the fault-schedule JSON on failure.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/chaos/

check: build vet test race

# The standing benchmark (BENCHMARK.json, benchmark/README.md): every
# workload end to end and per layer, RUNS times on SEED, written to OUT; and
# the verdict per (workload, metric) between two such files, exit 1 past a
# bound. For a change that claims a gain, build A at the parent commit and B
# at the change, alternating which runs first.
SEED ?= 1
RUNS ?= 1
OUT ?= benchmark/out/suite.json
bench-suite:
	$(GO) run ./benchmark -seed $(SEED) -runs $(RUNS) -out $(OUT)

bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# Hot-path microbenchmarks with allocation counts: codec encode/decode with
# and without pooling, inproc request/reply round trips, and the lock-free
# vstore read path.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeDecode|BenchmarkInprocRoundTrip|BenchmarkVstoreRead' -benchmem \
		./internal/message ./internal/transport ./internal/vstore

# Machine-readable snapshot of the end-to-end hot-path benchmarks (commit and
# batched-read latency plus allocation counts), archived per PR for
# before/after comparison in EXPERIMENTS.md.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkCommitSinglePartition|BenchmarkTxnTimeline10|BenchmarkEncodeDecode' -benchmem . ./internal/message \
		| $(GO) run ./cmd/bench2json > BENCH_pr3.json
	@cat BENCH_pr3.json

# Wire-level transport comparison over real loopback UDP: batched
# sendmmsg/recvmmsg + pipelined sessions vs the per-datagram baseline vs
# inproc, reporting goodput and socket syscalls per committed transaction.
# Override MEASURE for quicker smoke runs (CI uses 300ms).
MEASURE ?= 2s
bench-udp:
	$(GO) run ./cmd/meerkat-bench -exp udp -measure $(MEASURE) -json BENCH_pr6.json

# Durability cost of the per-core write-ahead log: Retwis goodput fully in
# memory vs the WAL under each fsync policy (none/batch/always), with fsyncs
# per committed transaction showing the group-commit amortization.
bench-wal:
	$(GO) run ./cmd/meerkat-bench -exp wal -measure $(MEASURE) -json BENCH_pr7.json

# Commutative ops under skew plus the re-measured WAL sweep (the shared
# group-commit scheduler fixed the wal-batch fsync storm): hot-counter
# RMW-via-Put vs RMW-via-Increment across Zipf theta, reporting goodput,
# abort rate, and latency percentiles per cell.
bench-zipf:
	$(GO) run ./cmd/meerkat-bench -exp wal,zipf -measure $(MEASURE) -json BENCH_pr8.json

# Read-only fast path on read-heavy Retwis: the validated two-round commit
# vs the one-round snapshot path at 80/95/100% pure-read transactions,
# reporting goodput, abort rate, latency percentiles, and the share of
# commits that actually rode the fast path.
bench-ro:
	$(GO) run ./cmd/meerkat-bench -exp ro -measure $(MEASURE) -json BENCH_pr9.json

# Horizontal scaling of the sharded cluster layer: Retwis goodput at 1, 2,
# and 4 shards under the inproc endpoint capacity model (clients homed per
# shard, keys routed by the versioned hash-range shard map), plus a
# split-under-load timeline — the dip while shard 0 seals, fences, and
# migrates half the keyspace, then the recovery onto doubled capacity.
bench-shard:
	$(GO) run ./cmd/meerkat-bench -exp shard -measure $(MEASURE) -json BENCH_pr10.json
