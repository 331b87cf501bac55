GO ?= go

.PHONY: build test race vet bench bench-suite bench-compare bench-exp api-guard chaos check

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
# history and the crash window must force slow-path commits. TestChaosUDP runs
# the schedule over loopback UDP, where every message is decoded and — under
# the race detector — the bytes of a released one are poisoned. Set
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

# Experiments of cmd/meerkat-bench's registry (internal/bench.Experiments;
# `meerkat-bench -h` lists the names), comma-separated in EXP, measured for
# MEASURE per point and written as one JSON report to OUT, which defaults
# into the git-ignored bench-out/. CI smokes EXP=wal,zipf at MEASURE=300ms;
# the tables EXPERIMENTS.md quotes are 2s runs.
#
#   wal    durability cost of the per-core write-ahead log: Retwis in
#          memory vs each fsync policy, with fsyncs per transaction
#   zipf   commutative ops under skew: hot-counter RMW-via-Put vs
#          RMW-via-Increment across Zipf theta
MEASURE ?= 2s
EXP ?= wal
comma := ,
bench-exp: OUT = bench-out/$(subst $(comma),-,$(EXP)).json
bench-exp:
	@mkdir -p $(dir $(OUT))
	$(GO) run ./cmd/meerkat-bench -exp $(EXP) -measure $(MEASURE) -json $(OUT)

# One generation of everything: no Deprecated: marker and no Foo/FooCtx twin
# in non-test Go outside the four paper-baseline packages; no archived
# per-PR bench file or converter next to the standing benchmark; no
# per-experiment cell runner next to runCell in internal/bench. So a second
# generation cannot grow back unnoticed. And one goroutine per commit: the
# coordinator runs on its caller's, so non-test internal/coordinator has no
# go statement. And one driver for the whole protocol — commit, read,
# coordinator recovery, epoch change and state transfer — under one retry
# policy and the caller's context: across non-test internal/coordinator,
# internal/recovery and internal/drive there is no time.NewTimer (the lazily
# armed mailbox's timer is the clock's), exactly one .await( call site
# (drive.Link.Run), one Policy type, no go statement and no hand-written
# `for attempt` loop;
# internal/recovery has no timer, no inbox and no select of its own and its
# Options carry no Timeout or Retries; context.Background() appears in
# internal/coordinator only where Begin binds it. And one address
# per party, one address plan, one fault injector: no `eps` slice and at most
# one .Listen( per file (each constructor has its own) in internal/coordinator,
# no fault knob in internal/transport (faultnet injects), and no port stride
# computed from the shard count anywhere (topo.EndpointsPerNode is the stride).
# And one read, end to end: no one-key read message pair outside the suite's
# own comment, one read handler on the replica that builds its Reads in the
# pooled reply, and no whole-struct copy of one pointed-to value into another
# outside internal/message — a copied Message would share the arrays its
# source keeps across release (message.CopyFrom re-homes them). And a
# transaction's working memory belongs to its coordinator: exactly one &Txn{
# in non-test internal/coordinator (Begin's — Run recycles the coordinator's
# own), none in the root Client.Run, and no message.Txn literal in
# internal/coordinator that ships t.reads, t.writes or t.ops themselves (split
# carves copies out of the bump chunks). And one clock, one lifetime: outside
# internal/clock and the packages that stay on the wall clock by name
# (WALLCLOCK: the three baselines,
# the analytic simulator and the pre-suite experiment and chaos harnesses), no
# non-test file of the root package or internal/ arms a timer, sleeps or has a
# go statement — a wait is a clock.Timer, a goroutine a clock.Group's — and
# internal/clock has exactly one time.NewTimer and one go statement; and
# internal/transport, internal/wal, internal/replica and internal/faultnet
# declare no stop channel, Once, WaitGroup or CancelFunc field of their own.
# And the decoder owns its bytes, in one place: "unsafe" is imported, in non-test
# Go, by the mmsg syscall file and by internal/message/arena.go (a decoded key
# is a string over its message's arena; DESIGN.md §7 rule 5) and nowhere else,
# and the codec's walk has no allocating string(c.buf[...]) conversion beside it.
DRIVEN = internal/coordinator/*.go internal/recovery/*.go internal/drive/*.go
WALLCLOCK = kuafu|meerkatpb|pbclient|sim|bench|chaos
CLOCKED = $$(ls *.go internal/*/*.go | grep -v _test.go | grep -vE '^internal/($(WALLCLOCK)|clock)/')
api-guard:
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'Deprecated:|^func .*Ctx\(' . \
		| grep -vE '^\./internal/(kuafu|meerkatpb|pbclient|sim)/'
	@! git ls-files 'BENCH_pr*.json' experiments_output.txt cmd/bench2json | grep .
	@! grep -nE '^func run[A-Z][A-Za-z]*Point\(' internal/bench/*.go
	@! grep -nE --exclude='*_test.go' '^[[:space:]]*go[[:space:]]|for attempt' $(DRIVEN)
	@! grep -nE 'time\.(NewTimer|After|AfterFunc|NewTicker|Sleep)\(|^[[:space:]]*go[[:space:]]' $(CLOCKED)
	@test "$$(cat $$(ls internal/clock/*.go | grep -v _test.go) | grep -c 'time\.NewTimer(')" -eq 1 \
		&& test "$$(cat $$(ls internal/clock/*.go | grep -v _test.go) | grep -cE '^[[:space:]]*go[[:space:]]')" -eq 1 \
		&& ! grep -nE --exclude='*_test.go' 'time\.(After|AfterFunc|NewTicker|Sleep)\(' internal/clock/*.go \
		|| { echo "internal/clock must have exactly one time.NewTimer (Real's), one go statement (Group's) and no other timer"; exit 1; }
	@! grep -nE --exclude='*_test.go' '^[[:space:]]*[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]+(chan struct\{\}|sync\.(Once|WaitGroup)\b|context\.CancelFunc\b)' \
		internal/transport/*.go internal/wal/*.go internal/replica/*.go internal/faultnet/*.go
	@test "$$(cat $$(ls $(DRIVEN) | grep -v _test.go) | grep -c '\.await(')" -eq 1 \
		|| { echo "the round driver and its machines must have exactly one .await( call site"; exit 1; }
	@test "$$(cat $$(ls $(DRIVEN) | grep -v _test.go) | grep -ciE '^type policy struct')" -eq 1 \
		|| { echo "there must be exactly one retry policy type"; exit 1; }
	@! grep -nE --exclude='*_test.go' 'time\.(NewTimer|After|AfterFunc|NewTicker)\(|NewInbox\(|select \{|^[[:space:]]*(Timeout|Retries)[[:space:]]' internal/recovery/*.go
	@! grep -n --exclude='*_test.go' 'context\.Background()' internal/coordinator/*.go \
		| grep -vE 'return &Txn\{c: c, ctx: context\.Background\(\)\}|^[^:]*:[0-9]*:[[:space:]]*//'
	@! grep -nwE --exclude='*_test.go' 'eps' internal/coordinator/*.go
	@for f in $$(ls internal/coordinator/*.go | grep -v _test.go); do \
		test "$$(grep -c '\.Listen(' $$f)" -le 1 || { echo "$$f binds more than one endpoint"; exit 1; }; done
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'DropProb|SetLinkFilter|Isolate\(' internal/transport/
	@! grep -rnE --include='*.go' --exclude='*_test.go' '2 *\+ *\*?(shards|.*MaxShards)' .
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'TypeRead\b|TypeReadReply' . | grep -v '^\./benchmark/'
	@! grep -nF --exclude='*_test.go' 'make([]message.ReadResult' internal/replica/*.go
	@test "$$(cat $$(ls internal/replica/*.go | grep -v _test.go) | grep -cE '^func \(c \*core\) handle.*Read')" -eq 1 \
		|| { echo "internal/replica must have exactly one read handler"; exit 1; }
	@! grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]*\*[A-Za-z_][A-Za-z0-9_]* = \*[A-Za-z_][A-Za-z0-9_.]*$$' . \
		| grep -v '^\./internal/message/'
	@test "$$(cat $$(ls internal/coordinator/*.go | grep -v _test.go) | grep -c '&Txn{')" -eq 1 \
		|| { echo "internal/coordinator must have exactly one &Txn{ (Begin's)"; exit 1; }
	@! sed -n '/^func (cl \*Client) Run(/,/^}/p' client.go | grep -n '&Txn{'
	@! grep -nE --exclude='*_test.go' 'message\.Txn\{.*(ReadSet|WriteSet|OpSet): *t\.(reads|writes|ops)\b' internal/coordinator/*.go
	@! grep -rl --include='*.go' --exclude='*_test.go' '"unsafe"' . \
		| grep -vxE '\./internal/(transport/udp_mmsg_linux|message/arena)\.go'
	@! grep -nF 'string(c.buf[' internal/message/codec.go
