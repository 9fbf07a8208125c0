package network

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dagsfc/internal/graph"
)

// viewFingerprint renders a ledger's entire residual view (edges and
// deployed instances, quarantine included) as a comparable string.
func viewFingerprint(l *Ledger) string {
	g := l.net.G
	out := make([]byte, 0, 256)
	for e := 0; e < g.NumEdges(); e++ {
		out = append(out, fmt.Sprintf("e%d=%.9f;", e, l.EdgeResidual(graph.EdgeID(e)))...)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for f := VNFID(1); f <= l.net.Catalog.Merger(); f++ {
			if _, ok := l.net.Instance(graph.NodeID(v), f); !ok {
				continue
			}
			out = append(out, fmt.Sprintf("i%d.%d=%.9f;", v, f, l.InstanceResidual(graph.NodeID(v), f))...)
		}
	}
	return string(out)
}

// TestViewEpochIdentifiesView is the sequential epoch-soundness property:
// across a long random interleaving of reservations, releases, commits,
// discards, snapshots, rebases and faults, every time any ledger of the
// family reports a view epoch, the view it presents must be bit-identical
// to every other view ever reported under that epoch.
func TestViewEpochIdentifiesView(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := testNet(t)
		root := NewLedger(net)
		live := root.Overlay()
		var snaps []*Ledger
		activeFaults := 0

		seen := make(map[uint64]string)
		check := func(l *Ledger, step int, what string) {
			epoch := l.ViewEpoch()
			fp := viewFingerprint(l)
			if prev, ok := seen[epoch]; ok && prev != fp {
				t.Fatalf("seed %d step %d (%s): epoch %d presented two views:\n%s\nvs\n%s",
					seed, step, what, epoch, prev, fp)
			}
			seen[epoch] = fp
			if again := l.ViewEpoch(); again != epoch {
				t.Fatalf("seed %d step %d (%s): epoch moved %d -> %d with no mutation between", seed, step, what, epoch, again)
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1:
				_ = live.ReserveEdge(graph.EdgeID(rng.Intn(net.G.NumEdges())), float64(rng.Intn(4)))
			case 2:
				live.ReleaseEdge(graph.EdgeID(rng.Intn(net.G.NumEdges())), float64(rng.Intn(4)))
			case 3:
				_ = live.ReserveInstance(graph.NodeID(rng.Intn(4)), VNFID(1+rng.Intn(3)), float64(rng.Intn(3)))
			case 4:
				live.ReleaseInstance(graph.NodeID(rng.Intn(4)), VNFID(1+rng.Intn(3)), float64(rng.Intn(3)))
			case 5:
				snaps = append(snaps, live.Snapshot())
				if len(snaps) > 4 {
					snaps = snaps[1:]
				}
			case 6:
				if rng.Intn(2) == 0 {
					if err := live.ApplyFault(Fault{Kind: FaultLinkDown, Link: graph.EdgeID(rng.Intn(net.G.NumEdges()))}); err == nil {
						activeFaults++
					}
				} else if activeFaults == 0 {
					// Nothing to restore; mutate an edge instead.
					live.ReleaseEdge(0, 1)
				}
			case 7:
				// Rebase, like the server's commit loop: fold the live view
				// into a fresh root and start a new overlay over it.
				live = live.Flatten().Overlay()
			case 8:
				if err := live.Commit(); err != nil {
					t.Fatalf("seed %d step %d: commit against frozen-by-us base failed: %v", seed, step, err)
				}
			case 9:
				live.Discard()
			}
			check(live, step, "live")
			for i, s := range snaps {
				check(s, step, fmt.Sprintf("snap%d", i))
			}
		}
	}
}

// TestEpochPinsAndInvalidation pins the individual epoch rules.
func TestEpochPinsAndInvalidation(t *testing.T) {
	net := testNet(t)
	root := NewLedger(net)
	live := root.Overlay()

	// Unmutated family: overlay inherits the root's epoch; snapshots taken
	// back to back share the live overlay's epoch.
	if live.ViewEpoch() != root.ViewEpoch() {
		t.Fatal("fresh overlay does not share its base's epoch")
	}
	s1, s2 := live.Snapshot(), live.Snapshot()
	if s1.ViewEpoch() != s2.ViewEpoch() || s1.ViewEpoch() != live.ViewEpoch() {
		t.Fatal("snapshots of an unchanged overlay do not share its epoch")
	}

	// A mutation moves the live epoch but leaves earlier snapshots pinned
	// and valid: their (frozen-base) view genuinely did not change.
	before := s1.ViewEpoch()
	if err := live.ReserveEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if live.ViewEpoch() == before {
		t.Fatal("mutation did not move the live overlay's epoch")
	}
	if s1.ViewEpoch() != before {
		t.Fatal("sibling mutation invalidated a frozen snapshot's pin")
	}

	// A fault invalidates every pin in the family — including snapshots,
	// whose residuals change through the root's quarantine pointer — and
	// apply-then-restore does not restore the old pins (no ABA).
	if err := live.ApplyFault(Fault{Kind: FaultLinkDown, Link: 1}); err != nil {
		t.Fatal(err)
	}
	postFault := s1.ViewEpoch()
	if postFault == before {
		t.Fatal("fault did not invalidate a snapshot's pinned view")
	}
	if err := live.RestoreFault(Fault{Kind: FaultLinkDown, Link: 1}); err != nil {
		t.Fatal(err)
	}
	if s1.ViewEpoch() == postFault {
		t.Fatal("restore did not invalidate the post-fault pin (ABA)")
	}

	// Commit folds the overlay into its base and re-pins both at one fresh
	// shared epoch: their views are identical afterwards.
	if err := live.Commit(); err != nil {
		t.Fatal(err)
	}
	if live.ViewEpoch() != root.ViewEpoch() {
		t.Fatal("commit left overlay and base claiming different epochs for the same view")
	}
}

// TestEpochCacheCoherenceRace is the -race half of the epoch contract:
// concurrent mutators and queriers, serialized exactly like the server
// (mutations under a write lock, snapshots and their reads under read
// locks), fill a cache of residual views keyed by epoch, and no querier
// may ever find its snapshot's epoch already holding a different view.
// (What used to be cached under the epoch, Dijkstra trees, is now keyed by
// view content; core.TestPathCacheCoherenceRace covers that store.)
func TestEpochCacheCoherenceRace(t *testing.T) {
	g := graph.New(24)
	rng := rand.New(rand.NewSource(42))
	for v := 1; v < 24; v++ {
		g.MustAddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v), 1+rng.Float64()*3, 4+float64(rng.Intn(6)))
	}
	for i := 0; i < 30; i++ {
		a, b := rng.Intn(24), rng.Intn(24)
		if a != b {
			_, _ = g.AddEdge(graph.NodeID(a), graph.NodeID(b), 1+rng.Float64()*3, 4+float64(rng.Intn(6)))
		}
	}
	net := New(g, Catalog{N: 2})
	root := NewLedger(net)

	var mu sync.RWMutex // the server's state mutex, in miniature
	live := root.Overlay()
	var cache sync.Map // epoch -> viewFingerprint
	var hits atomic.Int64

	stop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		mrng := rand.New(rand.NewSource(7))
		var faults []Fault
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			switch mrng.Intn(8) {
			case 0, 1, 2:
				_ = live.ReserveEdge(graph.EdgeID(mrng.Intn(g.NumEdges())), float64(1+mrng.Intn(2)))
			case 3, 4:
				live.ReleaseEdge(graph.EdgeID(mrng.Intn(g.NumEdges())), float64(1+mrng.Intn(2)))
			case 5:
				f := Fault{Kind: FaultLinkDown, Link: graph.EdgeID(mrng.Intn(g.NumEdges()))}
				if err := live.ApplyFault(f); err == nil {
					faults = append(faults, f)
				}
			case 6:
				if n := len(faults); n > 0 {
					_ = live.RestoreFault(faults[n-1])
					faults = faults[:n-1]
				}
			case 7:
				live = live.Flatten().Overlay()
			}
			mu.Unlock()
		}
	}()

	var qWG sync.WaitGroup
	errCh := make(chan error, 4)
	for q := 0; q < 4; q++ {
		qWG.Add(1)
		go func(q int) {
			defer qWG.Done()
			for i := 0; i < 300; i++ {
				// Hold the read lock for the whole read+verify window,
				// exactly as a server worker holds its snapshot: no fault
				// or rebase can interleave with the comparison.
				mu.RLock()
				snap := live.Snapshot()
				epoch := snap.ViewEpoch()
				fp := viewFingerprint(snap)
				if cached, ok := cache.LoadOrStore(epoch, fp); ok {
					hits.Add(1)
					if cached != fp {
						mu.RUnlock()
						errCh <- fmt.Errorf("querier %d iter %d: epoch %d presented two views", q, i, epoch)
						return
					}
				}
				mu.RUnlock()
			}
		}(q)
	}
	qWG.Wait()
	close(stop)
	mutWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if hits.Load() == 0 {
		t.Fatal("property test never saw an epoch twice: the comparison is unexercised")
	}
}
