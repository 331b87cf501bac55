GO ?= go

.PHONY: build test race vet bench bench-suite bench-compare bench-json bench-exp api-guard chaos check

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

check: build vet api-guard test race

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

# One experiment of cmd/meerkat-bench, measured for MEASURE per point and
# written to OUT (CI smokes each at MEASURE=300ms):
#
#   udp       wire-level transport comparison over real loopback UDP: batched
#             sendmmsg/recvmmsg + pipelined sessions vs the per-datagram
#             baseline vs inproc; goodput and socket syscalls per transaction
#   wal       durability cost of the per-core write-ahead log: Retwis in
#             memory vs each fsync policy, with fsyncs per transaction
#   wal,zipf  the WAL sweep plus commutative ops under skew: hot-counter
#             RMW-via-Put vs RMW-via-Increment across Zipf theta
#   ro        read-only fast path on read-heavy Retwis: the validated
#             two-round commit vs the one-round snapshot path
#   shard     Retwis at 1, 2 and 4 shards under the inproc endpoint capacity
#             model, plus a split-under-load timeline
#
# OUT defaults into a git-ignored directory. The tracked BENCH_pr6…pr10.json
# are the archive of the 2s runs EXPERIMENTS.md quotes (udp, wal, wal,zipf,
# ro, shard in that order); only an explicit OUT=BENCH_prN.json rewrites one.
MEASURE ?= 2s
EXP ?= udp
comma := ,
bench-exp: OUT = bench-out/$(subst $(comma),-,$(EXP)).json
bench-exp:
	@mkdir -p $(dir $(OUT))
	$(GO) run ./cmd/meerkat-bench -exp $(EXP) -measure $(MEASURE) -json $(OUT)

# One API generation: no Deprecated: marker and no Foo/FooCtx twin in non-test
# Go outside the four paper-baseline packages, so a second generation cannot
# grow back unnoticed.
api-guard:
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'Deprecated:|^func .*Ctx\(' . \
		| grep -vE '^\./internal/(kuafu|meerkatpb|pbclient|sim)/'
