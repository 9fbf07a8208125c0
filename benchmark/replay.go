package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
	"dagsfc/internal/wal"
)

// libraryReplay is the third leg of a serve workload's traced pass: the
// calls one embed worker and the commit loop make for each request, made
// here on a single goroutine against a ledger of the benchmark's own, a
// span around each. What the server adds on top of these (queues,
// goroutine hand-offs, locks, journal, JSON) is its in-process submit
// time minus this.
//
// Every admission is a root span replay.admit with the children
//
//	wal.append (admit record) → sfc.standardize → network.snapshot →
//	core.embed [→ network.commit on the snapshot → core.backup_embed] →
//	core.validate → network.commit → server.wal_payload → wal.append
//
// and every release a root replay.release with network.release →
// wal.append. Faults are not replayed: their cost is inside the server
// (revalidation scan, failover, repair) and is read off its histograms.
func (r *serveRunner) libraryReplay(ops []op, tr *tracer, outDir string) (stats core.Stats, err error) {
	ledger := network.NewLedger(r.net).Overlay()
	rebaseLen := r.net.G.NumEdges()
	if rebaseLen < 64 {
		rebaseLen = 64
	}
	opts := core.MBBEOptions()
	opts.PathCache = graph.NewTreeCache(0)
	opts.ViewCache = graph.NewViewCache(0)
	rules := sfc.StockRules()

	// The scratch logs: one under the workload's own fsync policy, fed
	// the record mix the server writes, and one whose buffered appends are
	// forced out by an explicit Sync, which isolates the fsync itself.
	var wlog, syncLog *wal.Log
	if r.sp.WAL {
		var dir string
		if dir, err = os.MkdirTemp(outDir, "wal-replay-"); err != nil {
			return stats, err
		}
		defer os.RemoveAll(dir)
		if wlog, _, err = wal.Open(dir+"/commit", wal.Options{Sync: wal.SyncPerCommit}); err != nil {
			return stats, err
		}
		defer wlog.Close()
		if syncLog, _, err = wal.Open(dir+"/sync", wal.Options{Sync: wal.SyncBatched, FlushInterval: time.Hour}); err != nil {
			return stats, err
		}
		defer syncLog.Close()
	}
	appendRec := func(req, parent int, t wal.Type, id int64, payload []byte) error {
		if wlog == nil {
			return nil
		}
		sp := tr.begin(req, parent, "wal.append")
		_, err := wlog.Append(wal.Record{Type: t, Flow: id, Data: payload})
		tr.end(sp)
		return err
	}

	type flow struct {
		p      *core.Problem
		sol    *core.Solution
		backup *core.Solution
		ttl    bool
	}
	var standing []flow
	release := func(req int, f flow) error {
		root := tr.begin(req, 0, "replay.release")
		defer tr.end(root)
		f.p.Ledger = ledger // a rebase may have replaced the overlay since
		sp := tr.begin(req, root, "network.release")
		err := core.Release(f.p, f.sol)
		if err == nil && f.backup != nil {
			err = core.Release(f.p, f.backup)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		t := wal.TypeRelease
		if f.ttl {
			t = wal.TypeExpire
		}
		return appendRec(req, root, t, int64(req), nil)
	}

	var lastEpoch uint64
	for i := range ops {
		req := ops[i].Req
		if ep := ledger.ViewEpoch(); ep != lastEpoch {
			tr.count("network.epoch_moves", 1)
			lastEpoch = ep
		}
		root := tr.begin(i, 0, "replay.admit")
		if err := appendRec(i, root, wal.TypeAdmit, int64(i), nil); err != nil {
			return stats, err
		}

		sp := tr.begin(i, root, "sfc.standardize")
		var dag sfc.DAGSFC
		if len(req.Chain) > 0 {
			chain := make([]network.VNFID, len(req.Chain))
			for k, id := range req.Chain {
				chain[k] = network.VNFID(id)
			}
			dag = sfc.ChainToDAG(chain, rules, 3)
		} else {
			dag, err = sfc.Parse(req.SFC)
		}
		tr.end(sp)
		if err != nil {
			return stats, fmt.Errorf("op %d: %w", i, err)
		}

		sp = tr.begin(i, root, "network.snapshot")
		snap := ledger.Snapshot()
		tr.end(sp)
		p := &core.Problem{
			Net: r.net, Ledger: snap, SFC: dag,
			Src: graph.NodeID(req.Src), Dst: graph.NodeID(req.Dst), Rate: req.Rate, Size: req.Size,
		}

		probe := i%probeEvery == 0
		var m0, m1 runtime.MemStats
		if probe {
			runtime.ReadMemStats(&m0)
		}
		sp = tr.begin(i, root, "core.embed")
		out, err := core.Embed(p, opts)
		tr.end(sp)
		if probe {
			runtime.ReadMemStats(&m1)
			tr.sample("core.embed_allocs", float64(m1.Mallocs-m0.Mallocs))
			tr.sample("core.embed_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		}
		if err != nil {
			tr.end(root)
			if errors.Is(err, core.ErrNoEmbedding) {
				continue
			}
			return stats, fmt.Errorf("op %d: embed: %w", i, err)
		}
		addStats(&stats, out.Stats)

		var backup *core.Result
		if req.Protection == server.ProtectionBackup {
			sp = tr.begin(i, root, "network.commit")
			_, err = core.Commit(p, out.Solution)
			tr.end(sp)
			if err != nil {
				return stats, fmt.Errorf("op %d: backup pre-reserve: %w", i, err)
			}
			sp = tr.begin(i, root, "core.backup_embed")
			backup, err = embedBackup(r.net, p, out.Solution, opts)
			tr.end(sp)
			if err != nil {
				tr.end(root)
				if errors.Is(err, core.ErrNoEmbedding) {
					continue
				}
				return stats, fmt.Errorf("op %d: backup embed: %w", i, err)
			}
		}

		live := *p
		live.Ledger = ledger
		sp = tr.begin(i, root, "core.validate")
		err = core.Validate(&live, out.Solution)
		tr.end(sp)
		if err != nil {
			return stats, fmt.Errorf("op %d: validate on the live ledger: %w", i, err)
		}
		sp = tr.begin(i, root, "network.commit")
		_, err = core.Commit(&live, out.Solution)
		if err == nil && backup != nil {
			_, err = core.Commit(&live, backup.Solution)
		}
		tr.end(sp)
		if err != nil {
			return stats, fmt.Errorf("op %d: commit: %w", i, err)
		}

		f := flow{p: &live, sol: out.Solution, ttl: req.TTLSeconds > 0}
		if backup != nil {
			f.backup = backup.Solution
		}
		var payload []byte
		if wlog != nil {
			sp = tr.begin(i, root, "server.wal_payload")
			payload, err = json.Marshal(walCommit{
				Info: server.FlowInfo{
					ID: int64(i), SFC: sfc.Format(dag), Src: req.Src, Dst: req.Dst,
					Rate: req.Rate, Size: req.Size, Alg: "mbbe",
					Cost:    server.Cost{Total: out.Cost.Total(), VNF: out.Cost.VNFCost, Link: out.Cost.LinkCost},
					Created: time.Now(), State: server.FlowStateActive,
				},
				Sol: out.Solution, Backup: f.backup,
			})
			tr.end(sp)
			if err != nil {
				return stats, err
			}
		}
		if err := appendRec(i, root, wal.TypeCommit, int64(i), payload); err != nil {
			return stats, err
		}
		tr.end(root)

		if syncLog != nil && probe {
			if _, err := syncLog.Append(wal.Record{Type: wal.TypeCommit, Flow: int64(i), Data: payload}); err != nil {
				return stats, err
			}
			t0 := time.Now()
			err := syncLog.Sync()
			tr.sample("wal.fsync_ms", msSince(t0))
			if err != nil {
				return stats, err
			}
		}
		if probe {
			probeGraph(tr, r.net, ledger, &live, out.Solution)
		}

		standing = append(standing, f)
		if len(standing) > r.sp.Standing*r.sp.Clients {
			old := standing[0]
			standing = standing[1:]
			if err := release(i, old); err != nil {
				return stats, fmt.Errorf("op %d: release: %w", i, err)
			}
		}
		if ledger.OverlayLen() > rebaseLen {
			ledger = ledger.Flatten().Overlay()
		}
	}
	for i, f := range standing {
		if err := release(len(ops)+i, f); err != nil {
			return stats, fmt.Errorf("drain: %w", err)
		}
	}
	seed := ledgerResiduals(r.net, network.NewLedger(r.net))
	return stats, seed.equal(ledgerResiduals(r.net, ledger))
}

// walCommit mirrors the payload the server journals with a commit record
// (its type is unexported): the flow's wire description plus the exact
// placements. Only the size and shape matter here — the scratch log is
// never replayed.
type walCommit struct {
	Info   server.FlowInfo `json:"info"`
	Sol    *core.Solution  `json:"sol"`
	Backup *core.Solution  `json:"backup,omitempty"`
}

// embedBackup is the search a protected admission adds: a second embed
// with the primary's links and nodes banned (the flow's own endpoints
// excepted), falling back to link-disjoint only, on a ledger that already
// holds the primary.
func embedBackup(nw *network.Network, p *core.Problem, primary *core.Solution, opts core.Options) (*core.Result, error) {
	opts.BannedEdges = make(map[graph.EdgeID]bool)
	opts.BannedNodes = make(map[graph.NodeID]bool)
	primary.VisitEdges(func(e graph.EdgeID) {
		opts.BannedEdges[e] = true
		ed := nw.G.Edge(e)
		opts.BannedNodes[ed.A] = true
		opts.BannedNodes[ed.B] = true
	})
	primary.VisitNodes(func(v graph.NodeID) { opts.BannedNodes[v] = true })
	delete(opts.BannedNodes, p.Src)
	delete(opts.BannedNodes, p.Dst)
	res, err := core.Embed(p, opts)
	if err == nil || !errors.Is(err, core.ErrNoEmbedding) {
		return res, err
	}
	opts.BannedNodes = nil
	return core.Embed(p, opts)
}
