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
// across a long random interleaving of reservations, releases, snapshots,
// hand-overs of the live role to a copy, and faults, every time the live
// ledger or a copy taken of it that moment reports a view epoch, the view
// it presents must be bit-identical to every other view reported under
// that epoch. A copy the live ledger has left behind sees none of the live
// ledger's later mutations or faults, so its epochs are held to its own
// history only.
func TestViewEpochIdentifiesView(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := testNet(t)
		live, spare := NewLedger(net), new(Ledger)
		type held struct {
			l    *Ledger
			seen map[uint64]string
		}
		var snaps []held
		var active []Fault

		seen := make(map[uint64]string)
		check := func(l *Ledger, seen map[uint64]string, step int, what string) {
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
				_ = live.ReserveInstance(graph.NodeID(rng.Intn(4)), VNFID(rng.Intn(4)), float64(rng.Intn(3)))
			case 4:
				live.ReleaseInstance(graph.NodeID(rng.Intn(4)), VNFID(rng.Intn(4)), float64(rng.Intn(3)))
			case 5:
				snaps = append(snaps, held{live.Snapshot(), make(map[uint64]string)})
				if len(snaps) > 4 {
					snaps = snaps[1:]
				}
			case 6:
				if rng.Intn(2) == 0 || len(active) == 0 {
					f := Fault{Kind: FaultLinkDown, Link: graph.EdgeID(rng.Intn(net.G.NumEdges()))}
					must(t, live.ApplyFault(f))
					active = append(active, f)
				} else {
					i := rng.Intn(len(active))
					must(t, live.RestoreFault(active[i]))
					active = append(active[:i], active[i+1:]...)
				}
			case 7:
				// Hand the live role to a fresh copy: the lineage goes on.
				live = live.Snapshot()
			case 8:
				// Hand it to a recycled copy, and recycle the old live ledger.
				live, spare = live.SnapshotInto(spare), live
			case 9:
				// A copy taken and read this moment is the live view.
				check(live.Snapshot(), seen, step, "fresh snapshot")
			}
			check(live, seen, step, "live")
			for i, s := range snaps {
				check(s.l, s.seen, step, fmt.Sprintf("snap%d", i))
			}
		}
	}
}

// TestEpochRules pins the individual epoch rules.
func TestEpochRules(t *testing.T) {
	net := testNet(t)
	live := NewLedger(net)

	// Unmutated family: copies taken back to back share the source's epoch.
	s1, s2 := live.Snapshot(), live.Snapshot()
	if s1.ViewEpoch() != s2.ViewEpoch() || s1.ViewEpoch() != live.ViewEpoch() {
		t.Fatal("snapshots of an unchanged ledger do not share its epoch")
	}

	// A mutation moves the live epoch but leaves earlier snapshots where
	// they were: their view genuinely did not change.
	before := s1.ViewEpoch()
	must(t, live.ReserveEdge(0, 2))
	if live.ViewEpoch() == before {
		t.Fatal("mutation did not move the live ledger's epoch")
	}
	if s1.ViewEpoch() != before {
		t.Fatal("a mutation of the source moved a snapshot's epoch")
	}

	// What changes no view moves no epoch: a rejected reservation, and the
	// dummy VNF, which is free.
	mid := live.ViewEpoch()
	if live.ReserveEdge(0, net.G.Edge(0).Capacity) == nil {
		t.Fatal("over-capacity reservation accepted")
	}
	if live.ReserveEdge(0, -1) == nil {
		t.Fatal("negative reservation accepted")
	}
	must(t, live.ReserveInstance(0, Dummy, 3))
	live.ReleaseInstance(0, Dummy, 3)
	if live.ViewEpoch() != mid {
		t.Fatal("a rejected or dummy reservation moved the epoch")
	}

	// A fault moves the epoch of the ledger it is applied to and of no
	// other — an earlier snapshot keeps its view, and so its epoch — and
	// apply-then-restore does not bring the old epoch back (no ABA). A
	// rejected fault moves nothing.
	preFault := live.ViewEpoch()
	must(t, live.ApplyFault(Fault{Kind: FaultLinkDown, Link: 1}))
	postFault := live.ViewEpoch()
	if postFault == preFault {
		t.Fatal("fault did not move the faulted ledger's epoch")
	}
	if s1.ViewEpoch() != before {
		t.Fatal("a fault on the source moved a snapshot's epoch")
	}
	must(t, live.RestoreFault(Fault{Kind: FaultLinkDown, Link: 1}))
	if e := live.ViewEpoch(); e == postFault || e == preFault {
		t.Fatal("restore brought back an earlier epoch (ABA)")
	}
	restored := live.ViewEpoch()
	if live.RestoreFault(Fault{Kind: FaultLinkDown, Link: 1}) == nil || live.ApplyFault(Fault{Kind: FaultLinkDown, Link: -1}) == nil {
		t.Fatal("an unmatched restore or an invalid fault was accepted")
	}
	if live.ViewEpoch() != restored {
		t.Fatal("a rejected fault moved the epoch")
	}

	// SnapshotInto overwrites the destination's epoch with its source's,
	// whatever the destination went through before; mutating the copy then
	// moves its epoch and nothing of the source's.
	for i := 0; i < 5; i++ {
		s2.ReleaseEdge(2, 1)
	}
	dst := live.SnapshotInto(s2)
	if dst.ViewEpoch() != live.ViewEpoch() {
		t.Fatalf("SnapshotInto left epoch %d, source's %d", dst.ViewEpoch(), live.ViewEpoch())
	}
	src := live.ViewEpoch()
	dst.ReleaseEdge(0, 1)
	if dst.ViewEpoch() == src || live.ViewEpoch() != src {
		t.Fatal("mutating a copy did not move its epoch alone")
	}
}

// TestSnapshotHoldsItsViewRace is the -race half of the value contract:
// queriers, serialized against the writer exactly like the server's embed
// workers (a snapshot taken under the lock, read after it is released),
// fingerprint their snapshot under the lock and again once it is released,
// while a writer reserves, releases, applies and restores faults on the
// live ledger. Both fingerprints, and both epochs, must match: nothing done
// to the live ledger after a snapshot was taken reaches it.
func TestSnapshotHoldsItsViewRace(t *testing.T) {
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

	var mu sync.Mutex // the server's state mutex, in miniature
	live := NewLedger(net)
	var faultsSeen atomic.Int64 // faults the writer applied or restored

	stop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		mrng := rand.New(rand.NewSource(7))
		var faults []Fault
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			switch mrng.Intn(6) {
			case 0, 1:
				_ = live.ReserveEdge(graph.EdgeID(mrng.Intn(g.NumEdges())), float64(1+mrng.Intn(2)))
			case 2:
				live.ReleaseEdge(graph.EdgeID(mrng.Intn(g.NumEdges())), float64(1+mrng.Intn(2)))
			case 3, 4:
				f := Fault{Kind: FaultLinkDown, Link: graph.EdgeID(mrng.Intn(g.NumEdges()))}
				if mrng.Intn(2) == 0 {
					f = Fault{Kind: FaultNodeDown, Node: graph.NodeID(mrng.Intn(g.NumNodes()))}
				}
				if err := live.ApplyFault(f); err == nil {
					faults = append(faults, f)
					faultsSeen.Add(1)
				}
			case 5:
				if n := len(faults); n > 0 {
					if err := live.RestoreFault(faults[n-1]); err == nil {
						faultsSeen.Add(1)
					}
					faults = faults[:n-1]
				}
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
				mu.Lock()
				snap := live.Snapshot()
				epoch, fp := snap.ViewEpoch(), viewFingerprint(snap)
				mu.Unlock()
				if again, fpAgain := snap.ViewEpoch(), viewFingerprint(snap); again != epoch || fpAgain != fp {
					errCh <- fmt.Errorf("querier %d iter %d: the snapshot's view moved after the lock was released (epoch %d -> %d)", q, i, epoch, again)
					return
				}
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
	if faultsSeen.Load() == 0 {
		t.Fatal("the writer never applied or restored a fault: the property is unexercised")
	}
}
