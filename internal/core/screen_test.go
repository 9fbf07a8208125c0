package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
)

// screenFuzzNodes, screenFuzzEdges and screenFuzzCats size FuzzScreenParent's
// substrate: few enough nodes, links and categories that candidates share
// them and capacity binds.
const screenFuzzNodes, screenFuzzEdges, screenFuzzCats = 4, 4, 3

// screenFuzzValues are the costs, ways on and residuals FuzzScreenParent
// draws from: small enough a set that exact ties occur, with +Inf (no way
// on), zero and values whose sums round.
var screenFuzzValues = [...]float64{0, 0.1, 0.2, 0.3, 0.7, 1, 2, 2.5, 3, math.Inf(1)}

// byteReader hands out a fuzz input a byte at a time, zero once it runs dry.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// finite draws one of screenFuzzValues bar +Inf.
func (r *byteReader) finite() float64 {
	return screenFuzzValues[r.next()%(len(screenFuzzValues)-1)]
}

// ext draws one extension: its end node, local cost, delay and the instances
// and links it uses.
func (r *byteReader) ext() *extension {
	ext := &extension{endNode: graph.NodeID(r.next() % screenFuzzNodes), localCost: r.finite(), delay: r.finite()}
	for n := r.next() % 4; n > 0; n-- {
		ext.instUse = append(ext.instUse, InstanceUseKey{graph.NodeID(r.next() % screenFuzzNodes), network.VNFID(1 + r.next()%(screenFuzzCats-1))})
	}
	for n := r.next() % 4; n > 0; n-- {
		ext.edgeUse = append(ext.edgeUse, edgeUse{graph.EdgeID(r.next() % screenFuzzEdges), 1 + r.next()%2})
	}
	return ext
}

// screenReference is screenParent's contract without its stop: every
// candidate screened in order, the children that pass stable-sorted by
// bySubCost and cut at Xd.
func screenReference(e *embedder, parent *subSolution, exts []*extension) (children []*subSolution, capRejected, delayRejected int) {
	for _, ext := range exts {
		switch {
		case e.opts.MaxDelay > 0 && parent.cumDelay+ext.delay > e.opts.MaxDelay:
			delayRejected++
		case !feasibleAfter(e.p.Rate, &e.res, parent, ext):
			capRejected++
		default:
			children = append(children, e.extend(parent, ext, 2))
		}
	}
	slices.SortStableFunc(children, bySubCost)
	if e.bounds.xd > 0 {
		children = e.truncateWithDelayDiversity(children, e.bounds.xd)
	}
	return children, capRejected, delayRejected
}

// FuzzScreenParent checks the bounded screening against screenReference: a
// parent chain, up to 40 candidates and residual rows drawn from the input,
// the candidates put in q order by trimExtensions as a build does. Without a
// delay bound the same children must come out in the same order, each with
// its rank's and cost's bits, from no more candidates than the reference
// screened; with one, every candidate must be screened, rejections and all.
func FuzzScreenParent(f *testing.F) {
	f.Add([]byte{4, 1, 0, 20, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{1, 0, 1, 40, 0, 8, 8, 8, 8, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 2, 2, 9, 7, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	// Why the stop test has slack: X_d = 1 and a parent of cost 0.1, ample
	// capacity, two candidates of q 2.7 — localCost 0.7 with 2 to go, then
	// 0.2 with 2.5. Both rank 2.8, the second the cheaper, so it is the one
	// kept; yet 0.1+2.7 rounds to 2.8000000000000003, past the first's rank.
	f.Add([]byte{1, 0, 0, 1, 0, 6, 7, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
		1, 0, 1, 0, 0, 0, 2, 1, 4, 0, 0, 0, 2, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		xd, sizeIdx, delayMode := r.next()%6, r.next()%3, r.next()%3
		sc := newPooledScratch()
		e := &sc.e
		*e = embedder{
			p:      &Problem{Rate: 1, Size: []float64{1, 0.5, 3}[sizeIdx]},
			opts:   Options{MaxDelay: []float64{0, 2.5, 4}[delayMode]},
			bounds: searchBounds{xd: xd},
			sc:     sc,
		}
		if r.next()%4 != 0 {
			e.toDst = make([]float64, screenFuzzNodes)
			for v := range e.toDst {
				e.toDst[v] = screenFuzzValues[r.next()%len(screenFuzzValues)]
			}
		}
		e.res = residuals{inst: make([]float64, screenFuzzCats*screenFuzzNodes), nodes: screenFuzzNodes, edge: make([]float64, screenFuzzEdges)}
		for _, row := range [][]float64{e.res.inst, e.res.edge} {
			for i := range row {
				row[i] = float64(r.next() % 5)
			}
		}
		// The parent: the root, then up to two layers, each one extension.
		parent := &subSolution{}
		for n := r.next() % 3; n > 0; n-- {
			ext := r.ext()
			parent = &subSolution{parent: parent, ext: ext, layer: parent.layer + 1,
				cum: parent.cum + ext.localCost, cumDelay: parent.cumDelay + ext.delay}
		}
		exts := make([]*extension, r.next()%41)
		for i := range exts {
			exts[i] = r.ext()
		}
		exts = e.trimExtensions(exts, maxExtensionsPerStart)
		e.lists = []candidateList{{exts: exts, fst: &SearchTree{}}} // built: step has nothing to build
		e.layerExts = make([]int32, screenFuzzNodes)
		e.layerExts[parent.endNode(0)] = 1

		want, capRejected, delayRejected := screenReference(e, parent, exts)
		var got parentScreen
		e.screenParent(LayerSpec{Index: 2}, parent, &got, nil)
		if len(got.children) != len(want) {
			t.Fatalf("%d children, the reference keeps %d", len(got.children), len(want))
		}
		for i, child := range got.children {
			if w := want[i]; child.ext != w.ext || math.Float64bits(child.rank) != math.Float64bits(w.rank) ||
				math.Float64bits(child.cum) != math.Float64bits(w.cum) {
				t.Fatalf("child %d: ext %p rank %v cum %v, the reference's ext %p rank %v cum %v",
					i, child.ext, child.rank, child.cum, w.ext, w.rank, w.cum)
			}
		}
		if e.opts.MaxDelay > 0 || xd == 0 {
			if got.considered != len(exts) || got.capRejected != capRejected || got.delayRejected != delayRejected {
				t.Fatalf("screened %d of %d candidates, %d/%d rejected; the reference %d/%d",
					got.considered, len(exts), got.capRejected, got.delayRejected, capRejected, delayRejected)
			}
		} else if got.considered > len(exts) || got.capRejected > capRejected || got.delayRejected != 0 {
			t.Fatalf("screened %d of %d candidates, %d rejected; the reference rejects %d", got.considered, len(exts), got.capRejected, capRejected)
		}
	})
}

// lazyMatchesEager embeds p under MBBE twice: as Embed does, traced, and
// through the eager reference — every candidate of a parallel layer built
// before it is screened, the last layer screened as any other and all its
// leaves closed. It fails unless the two refuse alike or return the same
// Solution at the same cost bits, or the lazy run builds more candidates
// than the eager one. It returns the candidates each built and
// the pairs Embed left unopened on the layers before the last, read off the
// trace: their candidates' pending_pairs less their backward searches.
func lazyMatchesEager(t testing.TB, name string, p *Problem) (lazyBuilds, eagerBuilds, unopened int) {
	t.Helper()
	got, tr, gotErr := embedTraced(p, MBBEOptions())
	eager, eagerErr := embedReference(p, MBBEOptions(), func(e *embedder) { e.eager = true })
	if fmt.Sprint(gotErr) != fmt.Sprint(eagerErr) {
		t.Fatalf("%s: lazy %v, eager %v", name, gotErr, eagerErr)
	}
	last := fmt.Sprintf("layer %d", len(p.LayerSpecs()))
	for _, layer := range tr.Root().Children() {
		if layer.Name() != last {
			for _, cand := range findSpans(layer, "candidates") {
				unopened += intAttr(cand, "pending_pairs")
			}
			unopened -= len(findSpans(layer, "backward-search"))
		}
	}
	if gotErr != nil {
		return 0, 0, unopened
	}
	if !reflect.DeepEqual(got.Solution, eager.Solution) || got.Stats.Extensions > eager.Stats.Extensions ||
		math.Float64bits(got.Cost.VNFCost) != math.Float64bits(eager.Cost.VNFCost) ||
		math.Float64bits(got.Cost.LinkCost) != math.Float64bits(eager.Cost.LinkCost) {
		t.Fatalf("%s: lazy %v at %+v, %+v; eager %v at %+v, %+v", name, got.Solution, got.Cost, got.Stats,
			eager.Solution, eager.Cost, eager.Stats)
	}
	return got.Stats.Extensions, eager.Stats.Extensions, unopened
}

// lazyNets are the best-first build's substrates, each with its loaded
// ledger: screenGolden's, and the same draw with every price at its mean,
// where candidates of equal q — ordered by eager index — abound.
func lazyNets(tb testing.TB) (nets [2]*network.Network, ledgers [2]*network.Ledger) {
	for i := range nets {
		cfg := netgen.Default()
		if i == 1 {
			cfg.VNFPriceFluct, cfg.LinkPriceFluct = 0, 0
		}
		nets[i] = netgen.MustGenerate(cfg, rand.New(rand.NewSource(48)))
		ledgers[i] = loadedLedger(tb, nets[i], rand.New(rand.NewSource(49)))
	}
	return nets, ledgers
}

// TestLazyCandidatesMatchEager is the oracle of the best-first build: over
// screenGolden's instances, the Table 2 flows and 400 hybrids of widths 2–4
// and sizes 3–8 — every other one on a loaded ledger, every other pair at
// flat prices — building a parallel layer's candidates in bound order as the
// screen reads them embeds exactly as building them all does.
func TestLazyCandidatesMatchEager(t *testing.T) {
	nets, ledgers := lazyNets(t)
	lazy, eager, unopened := 0, 0, 0
	check := func(name string, p *Problem) {
		l, e, u := lazyMatchesEager(t, name, p)
		lazy, eager, unopened = lazy+l, eager+e, unopened+u
	}
	for _, c := range screenCases {
		p := screenFlow(rand.New(rand.NewSource(c.seed)), nets[0], c.width, c.size)
		if c.loaded {
			p.Ledger = ledgers[0]
		}
		check(fmt.Sprintf("screen seed %d", c.seed), p)
	}
	for i, p := range tableTwoFlows(60) {
		check(fmt.Sprintf("table 2 flow %d", i), p)
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 400; i++ {
		flat := i / 2 % 2
		p := screenFlow(rng, nets[flat], 2+i%3, 3+i%6)
		if i%2 == 1 {
			p.Ledger = ledgers[flat]
		}
		check(fmt.Sprintf("hybrid %d", i), p)
	}
	if lazy >= eager {
		t.Fatalf("vacuous: the lazy runs built %d candidates, the eager %d", lazy, eager)
	}
	if unopened == 0 {
		t.Fatal("vacuous: every pair of a layer before the last was opened")
	}
	t.Logf("%d candidates built, %d eagerly; %d pairs left unopened before the last layer", lazy, eager, unopened)
}

// FuzzLazyCandidates is TestLazyCandidatesMatchEager on a flow its input
// draws: a seed, a width of 2–4, a size of 3–8, whether the ledger is
// loaded and whether prices are flat.
func FuzzLazyCandidates(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 0, 0})
	f.Add([]byte{7, 2, 0, 5, 1, 0})
	f.Add([]byte{200, 31, 2, 2, 1, 1})
	f.Add([]byte{54, 0, 1, 3, 1, 1})
	f.Add([]byte{65, 0, 0, 5, 1, 1})
	nets, ledgers := lazyNets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		seed, width, size, loaded, flat := int64(r.next()|r.next()<<8), 2+r.next()%3, 3+r.next()%6, r.next()%2, r.next()%2
		p := screenFlow(rand.New(rand.NewSource(seed)), nets[flat], width, size)
		if loaded == 1 {
			p.Ledger = ledgers[flat]
		}
		lazyMatchesEager(t, fmt.Sprintf("seed %d", seed), p)
	})
}
