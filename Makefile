# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test test-race race benchmark-vet short bench bench-smoke fuzz-smoke repro vet fmt

all: build vet test

# check is the pre-commit gate and the whole of CI but the benchmark module:
# gofmt (fmt fails on, and lists, an unformatted file), build, vet, the full
# suite (the structural contracts are rows of TestInvariants; allocation
# ceilings and the HTTP timeline are tests too), the race detector (the
# telemetry registry is written from concurrent trial runners, so -race is
# load-bearing), the benchmark module still compiling against the tree, a
# short fuzz of the queues and parsers, and every benchmark run once.
check: fmt build vet test race benchmark-vet fuzz-smoke bench-smoke

# benchmark/ is a module of its own, so `go build ./...` and `go vet ./...`
# never compile it: deleting a name only the benchmark still calls passes
# both and breaks the benchmark. Vet it against the tree as it stands.
benchmark-vet:
	$(GO) -C benchmark vet ./...

# fuzz-smoke runs the fuzzers briefly: both search queues pop in one strict
# (dist, node) order, a tree grown on demand agrees with the complete tree,
# the CSR with naive lists, a bounded screen keeps what screening all keeps,
# a best-first build embeds as building every candidate does, the ledger's
# rows ignore the order of fills and empties, the journal reads back what a
# slice would, and the pooled readers and sfc parser read what json.Unmarshal
# (or a fresh parse) reads. FUZZTIME=1x replays seeds and corpus, as go test does.
FUZZTIME ?= 10s
FUZZ_TARGETS = graph:FuzzBucketQueue graph:FuzzGrowTree graph:FuzzAdjacency core:FuzzScreenParent core:FuzzLazyCandidates network:FuzzLedgerOrder journal:FuzzJournal server:FuzzCreateBody server/client:FuzzDecodeResponse sfc:FuzzParse
fuzz-smoke:
	for t in $(FUZZ_TARGETS); do $(GO) test -run '^$$' -fuzz "$${t#*:}" -fuzztime $(FUZZTIME) "./internal/$${t%%:*}/" || exit 1; done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

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

# Regenerate every table/figure of the paper at full trial count.
repro:
	$(GO) run ./cmd/dagsfc-bench -exp all -trials 100 -seed 2018
