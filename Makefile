# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test test-race race core-single-goroutine core-dense-reads core-no-env core-one-trace graph-one-admission ledger-dense server-single-writer server-one-goroutine server-request-garbage journal-names docs-drift metrics-census package-census benchmark-vet short bench bench-smoke bench-json bench-guard fuzz-smoke serve-smoke obs-smoke chaos-smoke durable-smoke protect-smoke race-survival repro vet fmt

all: build vet test

# check is the pre-commit gate: build, vet, the full test suite, the race
# detector (the telemetry registry is written from concurrent trial
# runners, so -race is load-bearing here, not ceremony), the
# one-goroutine-per-embed contract, the search-reads-dense-rows contract,
# the no-environment-switch contract, the search-writes-its-own-trace
# contract, the one-dense-ledger contract, the
# one-writer-of-flow-state contract, the one-goroutine-per-request contract,
# the no-per-request-garbage contract of the HTTP layer, the
# one-name-per-transition contract of the journal, the
# docs-name-what-the-tree-has contract, the every-metric-has-a-reader
# contract, the every-package-and-command-earns-its-place contract, the
# benchmark module still compiling against the tree, and a short fuzz of the
# search-kernel priority queues, the request-body reader, the response
# decoder and the sfc parser.
check: build vet test race core-single-goroutine core-dense-reads core-no-env core-one-trace graph-one-admission ledger-dense server-single-writer server-one-goroutine server-request-garbage journal-names docs-drift metrics-census package-census benchmark-vet fuzz-smoke

# An embed is a single-goroutine computation over one arena (DESIGN §11):
# nothing in internal/core outside its tests may start a goroutine.
core-single-goroutine:
	@if grep -nE '^[[:space:]]*go[[:space:]]' $$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
		echo "internal/core starts a goroutine: an embed must stay on its caller's"; exit 1; \
	fi

# The search reads its ledger once, into dense rows (DESIGN §11 "Residual
# rows", §16): a per-query ledger or instance-table read — a hashed lookup,
# on an overlay a chain walk — must not grow back under embedder.run. Such
# reads belong to validate.go and cost.go, which price one finished solution.
core-dense-reads:
	@if grep -nE 'Net\.Instance\(|\.InstanceResidual\(|\.EdgeResidual\(' internal/core/embed.go internal/core/searchtree.go internal/core/subsolution.go internal/core/layered.go; then \
		echo "internal/core's search queries the ledger or the instance table per read; use the run's residual rows and Network.Rents"; exit 1; \
	fi

# What a search does is decided by its Options and its input, never by the
# process environment: a variant kept alive behind a variable is a second
# path nobody tests. Measurement switches live in scratch copies and in
# _test.go files.
core-no-env:
	@if grep -nE 'os\.(Getenv|LookupEnv|Environ)\(' $$(ls internal/core/*.go internal/graph/*.go | grep -v '_test\.go$$'); then \
		echo "internal/core or internal/graph reads the environment: pass an option or delete the switch"; exit 1; \
	fi

# An embed writes its span tree where each phase runs, into the span its
# caller passes in Options.Trace (DESIGN §8 "Traces"): the callback seam,
# its adapters and the recorder that rebuilt the nesting from a flat event
# stream must not grow back in the search or in dagsfc-embed.
core-one-trace:
	@if grep -nE 'type[[:space:]]+(Observer[[:space:]]+interface|FuncObserver|MultiObserver|TraceRecorder|logObserver)\b' $$(ls internal/core/*.go cmd/dagsfc-embed/*.go | grep -v '_test\.go$$'); then \
		echo "internal/core or cmd/dagsfc-embed declares an observer seam again: the search writes its trace at its source, into Options.Trace"; exit 1; \
	fi

# An arc is admitted by the compiled cost view alone (DESIGN §16): the
# scalar admission rule beside it, the per-edge residual read it needed,
# the breadth-first searches on raw options and runSearch's second,
# uncompiled admission branch must not grow back, nor the exported code
# only tests called (sfc.DAG, stats.Accumulator.Merge).
graph-one-admission:
	@if grep -nE 'func \(o \*CostOptions\) admits|func \(g \*Graph\) MinHopPath' $$(ls internal/graph/*.go | grep -v '_test\.go$$'); then \
		echo "internal/graph states the admission rule beside the compiled view again: search a CostView"; exit 1; \
	fi
	@if sed -n '/^type ResidualSource interface/,/^}/p' $$(ls internal/graph/*.go | grep -v '_test\.go$$') | grep -n 'EdgeResidual(e EdgeID)'; then \
		echo "graph.ResidualSource grew a per-edge read: a compile reads EdgeResiduals once"; exit 1; \
	fi
	@if grep -n 'cfg\.view != nil' internal/core/searchtree.go; then \
		echo "runSearch admits arcs without its view again: the compiled view is the one admission rule"; exit 1; \
	fi
	@if grep -nE 'type DAG struct' $$(ls internal/sfc/*.go | grep -v '_test\.go$$'); then \
		echo "internal/sfc grew its test-only DAG back"; exit 1; \
	fi
	@if grep -nE 'func \(a \*Accumulator\) Merge' $$(ls internal/stats/*.go | grep -v '_test\.go$$'); then \
		echo "internal/stats grew its test-only Merge back"; exit 1; \
	fi

# A ledger is a value: dense usage rows and a pointer to its own immutable
# quarantine table (DESIGN §11). The copy-on-write overlay (sparse delta
# maps), the view-epoch pins, the periodic rebase and a quarantine shared
# between copies (an atomic or a family pointer) must not grow back; a
# commit is checked once, by flowstate.Apply (§20), not by a second Check;
# and the three names kept for benchmark/ alone (Overlay, OverlayLen,
# Flatten) must gain no caller outside it — tests included.
ledger-dense:
	@if grep -nE 'edgeDelta|instDelta|epochCell|pinMu|chainSig' $$(ls internal/network/*.go | grep -v '_test\.go$$'); then \
		echo "internal/network grew an overlay or an epoch pin back: a ledger is dense rows"; exit 1; \
	fi
	@if grep -nE '"sync/atomic"|\<fam\>|type quarantine\>' $$(ls internal/network/*.go | grep -v '_test\.go$$'); then \
		echo "internal/network shares fault state between ledgers again: a ledger copy is a value"; exit 1; \
	fi
	@if grep -nE 'func \(st \*State\) Check\(' $$(ls internal/flowstate/*.go | grep -v '_test\.go$$'); then \
		echo "internal/flowstate grew a second commit check: Apply is the one place a commit is checked"; exit 1; \
	fi
	@if grep -nE 'Rebase|rebaseLen' $$(ls internal/flowstate/*.go internal/server/*.go internal/online/*.go | grep -v '_test\.go$$'); then \
		echo "the live ledger is rebased again: it is one dense ledger, copied, never folded"; exit 1; \
	fi
	@if grep -rnE '\.(Overlay|OverlayLen|Flatten)\(' --include='*.go' --exclude-dir=benchmark .; then \
		echo "a Go file outside benchmark/ calls a deprecated ledger shim: build ledgers with NewLedger, copy them with Snapshot"; exit 1; \
	fi

# The flow tables and the live ledger belong to internal/flowstate, and
# live traffic, WAL replay and the offline driver change them through the
# same Apply (DESIGN §20): the hand-written replay mirror, the second
# (re-protect) controller and the released-mid-repair side table must not
# grow back in the server, nor a ledger of its own, a direct commit or
# release, or a flow table in internal/online.
server-single-writer:
	@if grep -nE 'replayRecord|commitReprotect|reprotectOne|dropped[[:space:]]+map\[' $$(ls internal/server/*.go | grep -v '_test\.go$$'); then \
		echo "internal/server mutates flow state beside flowstate.Apply"; exit 1; \
	fi
	@if grep -nE 'core\.Commit\(|core\.Release\(|network\.NewLedger\(|NewFlowTable' $$(ls internal/online/*.go | grep -v '_test\.go$$'); then \
		echo "internal/online mutates a ledger beside flowstate.Apply"; exit 1; \
	fi

# A request is embedded and committed on the goroutine that asked for it,
# and TTL expiries and restore attempts on the timeline's, the one goroutine
# server.New starts (DESIGN §10): the embed worker pool, the commit loop,
# the claim protocol between them, the restore controller's admission grace,
# and the expiry wheel and repair loop that ran beside each other must not
# grow back.
server-one-goroutine:
	@if grep -nE 'func \(s \*Server\) (worker|commitLoop)\(|func \(j \*job\) (await|reply)\(|(admit|commit)[[:space:]]+chan[[:space:]]|RepairAdmitRetries|expiryWheel|repairLoop|repairKick|popRepair|enqueueRepairs' $$(ls internal/server/*.go | grep -v '_test\.go$$'); then \
		echo "internal/server grew a worker pool, a commit loop or a second background goroutine back: a request is served on its own goroutine, deferred work on the timeline"; exit 1; \
	fi

# Both sides of the socket read a body once into a pooled buffer, decode and
# encode it through the encoding/json state kept beside that buffer
# (jsonbuf.Buffer), and share one Content-Type value (DESIGN §21): a decoder
# built over the body itself (two scanners and a private read buffer per
# message), an encoder or json.Marshal per message, json.Unmarshal on a
# success path (a decodeState and a parse stack per message; the error path
# is jsonbuf's) and Header.Set's one-element slice per response must not
# grow back.
server-request-garbage:
	@if grep -nE 'json\.NewDecoder\((r|resp)\.Body|json\.(NewEncoder|Marshal|Unmarshal)\(|Header(\(\))?\.Set\("Content-Type"' internal/server/http.go internal/server/client/client.go; then \
		echo "internal/server allocates per-request garbage it was rid of (see DESIGN, The fixed cost of a request)"; exit 1; \
	fi

# The journal names a state change by its transition, from the table the
# WAL's record types use (DESIGN §13): every applied transition is journaled
# once, in log order, and no journal.Type is a transition's name.
journal-names:
	$(GO) test -count=1 -run '^TestJournalNamesEveryTransition$$' ./internal/server/

# README.md and DESIGN.md describe the tree that is there: every Go
# identifier they put in backticks is one some Go file still uses, or is
# listed with the PR that deleted it (docHistory in docs_test.go). The check
# is a test of the root package, so `make test` runs it too; the target names
# it for whoever edits the documents alone.
docs-drift:
	$(GO) test -count=1 -run '^TestDocsDrift$$' .

# Every metric family has a reader or it goes: each Metric* constant of
# internal/telemetry is named, by constant or by name, in a test, cmd/,
# benchmark/, this Makefile or the CI workflow, and every dagsfc_* family
# README.md and DESIGN.md name exists (census_test.go).
metrics-census:
	$(GO) test -count=1 -run '^TestMetricsCensus$$' .

# Every package and command earns its place: an internal/ package is
# imported from two directories of either module (root or benchmark/) or
# census_test.go's censusKeep says why it stays — one with a single importer
# folds into it — and a cmd/ program has a test in its directory or a rule
# here or a CI step runs it.
package-census:
	$(GO) test -count=1 -run '^TestPackageCensus$$' .

# benchmark/ is a module of its own, so `go build ./...` and `go vet ./...`
# never compile it: deleting a name only the benchmark still calls passes
# both and breaks the benchmark. Vet it against the tree as it stands.
benchmark-vet:
	$(GO) -C benchmark vet ./...

# fuzz-smoke runs the search-kernel fuzzers briefly. The two search queues
# — the bucket queue and the indexed heap trees and the layered search
# share — must pop in the identical strict (dist, node) order, or search
# results would fork depending on which structure a compiled view
# selects; and a Dijkstra tree grown on demand must agree with the complete
# tree wherever it has been read; and POST /v1/flows must do with a body
# what Submit does with json.Unmarshal's reading of it, whatever the pooled
# request held before, and the client's pooled decoder must read a response
# as json.Unmarshal does, whatever it read before. FUZZTIME=1x replays the
# seeds and the checked-in corpus and tries one new input (go test refuses
# 0x); a plain go test replays them too.
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
# benchmark (filtered Dijkstra, uncached MBBE embed, serial-chain MBBE embed)
# regressed more than 20% against the committed PR31 baseline, if an
# embed-path benchmark
# (MBBE embed cold, warm, warm under ledger churn and serial, layer
# extensions, BBE embed, the validate-commit-release ledger path, admission
# and release through the server: plain, protected, durable and over HTTP) allocates
# more than 5% more objects per op, if the embed the arena's tree store
# serves lost its 1.5x speedup floor, or if failing over to a reserved backup got more
# than 2x slower at p99 than the baseline records or stopped beating a repair
# re-embed. It refuses outright (non-zero exit) to compare
# two ledgers recorded at different GOMAXPROCS. The 20% limit is wide on
# purpose — it absorbs host-to-host ns/op noise while still catching real
# hot-path regressions; allocation counts repeat exactly, so their limit
# is tight.
BENCH_GUARD_OLD ?= BENCH_PR31.json
bench-guard: bench-json
	$(GO) run ./cmd/dagsfc-bench -guard-old $(BENCH_GUARD_OLD) -guard-new $(BENCH_JSON)

# serve-smoke boots the control plane in-process on an ephemeral port and
# drives one full commit/release cycle over real HTTP: residuals must
# shrink, return to the seed exactly, and /metrics must report the traffic.
serve-smoke:
	$(GO) run ./cmd/dagsfc-load -selfserve -smoke

# obs-smoke checks the observability surface end to end over real HTTP:
# the smoke run additionally asserts stage histograms and journal
# counters appear in /metrics, /v1/events is non-empty, and a committed
# flow's /v1/flows/{id}/events timeline is exactly enqueue → dequeue →
# embed_done → commit → release.
# A JSON-structured log stream and debug journal logging exercise the
# slog path at the same time.
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

# durable-smoke is the durability acceptance check: a seeded workload of
# arrivals and departures, with protected flows, against a WAL-backed
# server killed (in-process crash: the log's user-space buffer is dropped,
# nothing is flushed) before every op in turn, restarted over the same WAL
# directory and run to the end; the flow table and every ledger residual
# must be identical to a never-killed control run's. A failure names the
# kill point.
durable-smoke:
	$(GO) test -count=1 -run '^TestDurableCrashMatchesControl$$' ./internal/server/

# The survivability packages run concurrent repair controllers, fault
# injection, and breaker state under load, and the WAL's group commit hands
# an fsync between goroutines; core's embeds publish views and trees into
# one store from every worker while the ledger moves under them — run them
# under the race detector on their own so a failure names the culprit
# directly.
race-survival:
	$(GO) test -race ./internal/server/... ./internal/flowstate/... ./internal/faults/... ./internal/online/... ./internal/wal/... ./internal/core/...

# Regenerate every table/figure of the paper at full trial count.
repro:
	$(GO) run ./cmd/dagsfc-bench -exp all -trials 100 -seed 2018
