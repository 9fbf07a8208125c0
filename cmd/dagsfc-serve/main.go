// Command dagsfc-serve runs the embedding control plane: one live network
// whose capacity ledger is mutated only through the HTTP API
// (internal/server). A flow is embedded speculatively and committed on the
// goroutine serving its request, at most -embed-workers embeds at once, and
// lives until released over DELETE or until its TTL expires.
//
// The network is loaded from -net (the JSON of network.WriteJSON) or,
// without -net, generated in-process from the paper's §5.1 distribution.
//
// Usage:
//
//	dagsfc-serve [-addr localhost:8080] [-net net.json | -nodes 50 -kinds 10]
//	             [-embed-workers 0] [-queue 64] [-timeout 30s]
//	             [-drain-timeout 30s] [-seed 1]
//	             [-repair-retries 3]
//	             [-repair-backoff 25ms] [-repair-backoff-cap 1s]
//	             [-breaker-failures 0] [-breaker-cooldown 1s]
//	             [-journal 4096] [-log-level info] [-log-format text|json]
//	             [-wal-dir state/] [-wal-sync commit|batch|off]
//	             [-wal-snapshot-every 1024]
//
// A request names its algorithm ("alg", default mbbe) and its TTL
// ("ttl_seconds", default none: the flow lives until released); a commit
// that conflicts is re-embedded once before 409; mbbe and bbe share one
// cache of 4096 path trees.
//
// With -wal-dir the server is durable: every flow lifecycle mutation is
// appended to a write-ahead log and the full state is snapshotted
// periodically, so a restart over the same directory recovers the flow
// table, ledger residuals and fault quarantine exactly. A directory
// holding an unrecoverable log refuses to start rather than silently
// opening empty. -wal-sync batch group-commits every 5ms; segments rotate
// past 4 MiB.
//
// SIGINT/SIGTERM drains gracefully: admission stops (healthz turns 503,
// new flows get 503), in-flight requests finish, then the HTTP listener
// closes and the diagnostics session flushes. The API:
//
//	POST   /v1/flows          embed + commit one flow
//	GET    /v1/flows[/{id}]   inspect committed flows (state, repairs)
//	DELETE /v1/flows/{id}     release a flow's capacity
//	GET    /v1/flows/{id}/events  one flow's journal timeline
//	GET    /v1/events         page the flight-recorder journal
//	GET    /v1/network        residual-network snapshot
//	POST   /v1/faults         inject a fault (quarantine capacity)
//	POST   /v1/faults/restore restore a fault exactly
//	GET    /v1/faults         active faults + apply/restore accounting
//	GET    /healthz           liveness; GET /metrics — telemetry
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dagsfc/internal/diag"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/server"
)

func main() {
	gen := netgen.Default()
	gen.Nodes = 50
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		netFile      = flag.String("net", "", "network JSON file (default: generate one)")
		seed         = flag.Int64("seed", 1, "seed for network generation and randomized algorithms")
		workers      = flag.Int("embed-workers", 0, "concurrent speculative embeds (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "requests that may wait for an embed slot (one more is rejected with 429)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request pipeline deadline (past it: 504)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for in-flight requests")
		repairs      = flag.Int("repair-retries", 3, "re-embed attempts for a fault-stranded flow before eviction")
		repairWait   = flag.Duration("repair-backoff", 25*time.Millisecond, "base repair backoff (doubles per attempt)")
		repairCap    = flag.Duration("repair-backoff-cap", time.Second, "repair backoff ceiling")
		brkFails     = flag.Int("breaker-failures", 0, "consecutive pipeline failures that open the admission breaker (0 = disabled)")
		brkCooldown  = flag.Duration("breaker-cooldown", time.Second, "breaker open time before the half-open probe")
		journalSize  = flag.Int("journal", 4096, "flight-recorder ring capacity in events, 64 B each: 256 KiB at 4096 (replayable over /v1/events)")
		walDir       = flag.String("wal-dir", "", "durable flow state directory: write-ahead log + snapshots (empty = durability off)")
		walSync      = flag.String("wal-sync", "commit", "WAL fsync policy: commit (fsync per acknowledgment), batch (group-commit every 5ms), off (OS writeback)")
		walSnapEvery = flag.Int("wal-snapshot-every", 1024, "state snapshot every N WAL records (negative = only on drain)")
		logLevel     = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error, off")
		logFormat    = flag.String("log-format", "text", "structured log encoding: text or json")
	)
	flag.IntVar(&gen.Nodes, "nodes", gen.Nodes, "generated network size (ignored with -net)")
	flag.IntVar(&gen.VNFKinds, "kinds", gen.VNFKinds, "generated VNF categories (ignored with -net)")
	diag.Main("dagsfc-serve", func() error {
		// Logs go to stderr: stdout stays reserved for data.
		logger, err := journal.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			return err
		}
		cfg := server.Config{
			Seed:    *seed,
			Workers: *workers, QueueDepth: *queue, RequestTimeout: *timeout,
			RepairRetries: *repairs,
			RepairBackoff: *repairWait, RepairBackoffCap: *repairCap,
			BreakerFailures: *brkFails, BreakerCooldown: *brkCooldown,
			JournalSize: *journalSize, Logger: logger,
			WALDir: *walDir, WALSync: *walSync, WALSnapshotEvery: *walSnapEvery,
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		// A second signal kills the process the default way.
		context.AfterFunc(ctx, stop)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		return run(ctx, ln, *netFile, gen, cfg, *drainTimeout)
	})
}

// run serves the control plane on ln until ctx is done, then drains it. It
// closes ln.
func run(ctx context.Context, ln net.Listener, netFile string, gen netgen.Config, cfg server.Config, drainTimeout time.Duration) error {
	defer ln.Close()
	nw, err := netgen.Load(netFile, gen, cfg.Seed)
	if err != nil {
		return err
	}
	cfg.Net = nw
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dagsfc-serve: %d nodes, %d links, %d VNF instances; listening on http://%s\n",
		nw.G.NumNodes(), nw.G.NumEdges(), nw.NumInstances(), ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting and finish every in-flight request,
	// then close the listener. The diagnostics session flushes metrics
	// after this returns.
	fmt.Fprintln(os.Stderr, "dagsfc-serve: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("shutdown: %w", drainErr)
	}
	fmt.Fprintf(os.Stderr, "dagsfc-serve: drained, %d flows still committed\n", srv.ActiveFlows())
	return nil
}
