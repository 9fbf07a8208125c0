package core

import (
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

func TestSolutionString(t *testing.T) {
	s := lineSolution()
	out := s.String()
	for _, want := range []string{"L1{1}", "L2{2,1|m:2}", "t:path(1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}

func TestReleaseInverseOfCommit(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	if _, err := Commit(p, s); err != nil {
		t.Fatal(err)
	}
	if err := Release(p, s); err != nil {
		t.Fatal(err)
	}
	if used := p.Ledger.InstanceUsed(1, 1); used != 0 {
		t.Fatalf("instance still used %v after release", used)
	}
	if used := p.Ledger.EdgeUsed(1); used != 0 {
		t.Fatalf("edge still used %v after release", used)
	}
}

func TestReleaseBadSolution(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[0].Nodes[0] = 3 // f(1) not deployed there: unpriceable
	if err := Release(p, s); err == nil {
		t.Fatal("unpriceable release accepted")
	}
}

func TestTrimExtensionsDelayDiversity(t *testing.T) {
	mk := func(cost, delay float64) *extension {
		return &extension{localCost: cost, delay: delay}
	}
	exts := []*extension{mk(1, 9), mk(2, 8), mk(3, 1), mk(4, 7)}

	// Without delay mode: plain cheapest-2.
	e := &embedder{}
	got := e.trimExtensions(append([]*extension(nil), exts...), 2)
	if len(got) != 2 || got[0].localCost != 1 || got[1].localCost != 2 {
		t.Fatalf("plain trim wrong: %+v", got)
	}

	// With delay mode: the fastest (cost 3, delay 1) must survive.
	e = &embedder{opts: Options{MaxDelay: 10}}
	got = e.trimExtensions(append([]*extension(nil), exts...), 2)
	if len(got) != 2 {
		t.Fatalf("trim kept %d", len(got))
	}
	foundFast := false
	for _, ext := range got {
		if ext.delay == 1 {
			foundFast = true
		}
	}
	if !foundFast {
		t.Fatalf("fastest extension dropped: %+v", got)
	}
}

func TestTruncateWithDelayDiversity(t *testing.T) {
	mk := func(cost, delay float64) *subSolution {
		return &subSolution{cum: cost, cumDelay: delay}
	}
	children := []*subSolution{mk(1, 9), mk(2, 8), mk(3, 1)}
	e := &embedder{opts: Options{MaxDelay: 10}}
	got := e.truncateWithDelayDiversity(append([]*subSolution(nil), children...), 2)
	if len(got) != 2 {
		t.Fatalf("kept %d", len(got))
	}
	foundFast := false
	for _, ss := range got {
		if ss.cumDelay == 1 {
			foundFast = true
		}
	}
	if !foundFast {
		t.Fatal("fastest sub-solution dropped")
	}
	// No delay mode: plain prefix.
	e = &embedder{}
	got = e.truncateWithDelayDiversity(append([]*subSolution(nil), children...), 2)
	if got[1].cumDelay != 8 {
		t.Fatal("plain truncation altered order")
	}
	// Under the limit: untouched.
	got = e.truncateWithDelayDiversity(children[:1], 5)
	if len(got) != 1 {
		t.Fatal("short input truncated")
	}
}

func TestSearchTreeLevelBounds(t *testing.T) {
	p := lineFixture()
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1}})
	if tree.Level(0) != nil || tree.Level(tree.Iterations()+1) != nil {
		t.Fatal("out-of-range levels should be nil")
	}
	if len(tree.Level(1)) != 1 || tree.Level(1)[0].Node != graph.NodeID(0) {
		t.Fatalf("level 1 = %v", tree.Level(1))
	}
}
