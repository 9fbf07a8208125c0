# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test test-race race benchmark-vet short bench bench-smoke bench-json bench-guard fuzz-smoke serve-smoke obs-smoke chaos-smoke durable-smoke protect-smoke repro vet fmt

all: build vet test

# check is the pre-commit gate: build, vet, the full test suite (the
# structural contracts are rows of TestInvariants, invariants_test.go), the
# race detector (the telemetry registry is written from concurrent trial
# runners, so -race is load-bearing), the benchmark module still compiling
# against the tree, and a short fuzz of the queues and parsers.
check: build vet test race benchmark-vet fuzz-smoke

# benchmark/ is a module of its own, so `go build ./...` and `go vet ./...`
# never compile it: deleting a name only the benchmark still calls passes
# both and breaks the benchmark. Vet it against the tree as it stands.
benchmark-vet:
	$(GO) -C benchmark vet ./...

# fuzz-smoke runs the fuzzers briefly: the two search queues pop in one
# strict (dist, node) order, a tree grown on demand agrees with the complete
# tree, and the pooled request reader, response decoder and sfc parser read
# what json.Unmarshal (or a fresh parse) reads, whatever they held before.
# FUZZTIME=1x replays the seeds and the checked-in corpus and tries one new
# input (go test refuses 0x); a plain go test replays them too.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBucketQueue -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzGrowTree -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzCreateBody -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME) ./internal/server/client/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sfc/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

short:
	$(GO) test -short ./...

# One testing.B benchmark per paper figure plus micro-benchmarks.
bench:
	$(GO) test -bench . -benchmem ./...

# Compile and run every benchmark exactly once — catches bit-rotted
# benchmark code without the full -bench timing cost.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-json runs the hot-path micro-benchmarks with -benchmem and records
# ns/op, B/op and allocs/op as a labelled run in $(BENCH_JSON) — the
# tracked baseline that lets PRs show before/after numbers. Two steps on
# purpose: a benchmark failure fails the target before anything is parsed.
# CI runs it with BENCHTIME=1x BENCH_LABEL=ci as a smoke check (errors
# fail, thresholds don't).
BENCH_JSON ?= BENCH_PR34.json
BENCH_LABEL ?= after
BENCHTIME ?= 0.5s
BENCH_RAW ?= /tmp/dagsfc-bench-raw.txt
# The committed baselines were recorded at GOMAXPROCS 2, and the guard
# refuses to compare results recorded at different procs: pin it, so a
# ledger means the same thing on a 2-core sandbox and a 4-core CI runner.
BENCH_CPU ?= 2
bench-json:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -cpu $(BENCH_CPU) -run '^$$' ./internal/graph/ ./internal/ipmodel/ ./internal/core/ ./internal/network/ ./internal/wal/ ./internal/server/ ./cmd/dagsfc-load/ > $(BENCH_RAW)
	@cat $(BENCH_RAW)
	$(GO) run ./cmd/dagsfc-bench -parse-bench $(BENCH_RAW) -bench-label $(BENCH_LABEL) -bench-out $(BENCH_JSON)

# bench-guard regenerates the candidate ledger, prints the old->new delta
# of every benchmark both ledgers share, then fails if a guarded hot-path
# benchmark regressed more than 20% in ns/op against the committed PR31
# baseline (wide on purpose: host-to-host noise), if an embed-path or
# admission benchmark allocates more than 5% more objects per op (counts
# repeat exactly), if the arena's tree store lost its 1.5x speedup floor,
# or if failover got 2x slower at p99 or stopped beating a repair re-embed.
# It refuses to compare ledgers recorded at different GOMAXPROCS.
BENCH_GUARD_OLD ?= BENCH_PR31.json
bench-guard: bench-json
	$(GO) run ./cmd/dagsfc-bench -guard-old $(BENCH_GUARD_OLD) -guard-new $(BENCH_JSON)

# serve-smoke boots the control plane in-process on an ephemeral port and
# drives one full commit/release cycle over real HTTP: residuals must
# shrink, return to the seed exactly, and /metrics must report the traffic.
serve-smoke:
	$(GO) run ./cmd/dagsfc-load -selfserve -smoke

# obs-smoke is serve-smoke that also asserts stage histograms and journal
# counters in /metrics, a non-empty /v1/events, and a committed flow's
# timeline of exactly enqueue → dequeue → embed_done → commit → release,
# with JSON logs at debug level.
obs-smoke:
	$(GO) run ./cmd/dagsfc-load -selfserve -smoke -log-format json -log-level debug

# chaos-smoke boots the control plane in-process, commits a flow
# population over HTTP, replays a seeded self-restoring fault schedule
# against it, and verifies the survivability invariants: all faults
# restored, every repair settled (repaired or evicted), the ledger drains
# back to the exact seed residuals, and zero embed workers panicked. The
# server's journal is written for post-mortem (CI uploads it on failure).
chaos-smoke:
	$(GO) run ./cmd/dagsfc-load -selfserve -n 24 -size 3 -hold 0 -faults 6 -journal-dump /tmp/chaos-journal.json

# protect-smoke is chaos-smoke with half the population asking for a
# backup: every flow holding an active backup when a link fault lands must
# still be active once the fault is applied (failed over, never stranded),
# at least one failover must occur, and the drain to the seed residuals
# must leave the backup gauge at zero.
protect-smoke:
	$(GO) run ./cmd/dagsfc-load -selfserve -n 24 -size 3 -hold 0 -faults 6 -protect-frac 0.5 -journal-dump /tmp/protect-journal.json

# durable-smoke kills a WAL-backed server (its user-space buffer dropped)
# before every op of a seeded workload in turn and restarts it on the same
# directory; the flow table and every residual must equal a never-killed
# control run's. A failure names the kill point.
durable-smoke:
	$(GO) test -count=1 -run '^TestDurableCrashMatchesControl$$' ./internal/server/

# Regenerate every table/figure of the paper at full trial count.
repro:
	$(GO) run ./cmd/dagsfc-bench -exp all -trials 100 -seed 2018
