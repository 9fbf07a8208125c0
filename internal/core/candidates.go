package core

import (
	"math"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
)

// candidateList is one (layer, start) candidate set as the screens read it,
// through candidate or step, which build it on the first read (fst nil until
// then). An eager list holds every candidate, built and in q order. A lazy
// one (see lazy) holds its FST–BST pairs unopened, each behind a lower bound
// (see pendPairs); a pair opened becomes one stub per assignment, priced by a
// lower bound and built only when a screen reads that far.
type candidateList struct {
	// exts are the candidates handed out so far, in (q, eager index) order:
	// an eager list's every candidate.
	exts []*extension
	// stubs are a lazy list's pending pairs and assignments, hosts the
	// assignments' VNF hosts, stub s's at [s·k, (s+1)·k) for k VNFs. order
	// holds the pairs not yet opened and the stubs not yet handed out,
	// ascending by (key, pair first, ord).
	stubs []stub
	hosts []*TreeNode
	order []int32
	fst   *SearchTree
	spec  LayerSpec
	start graph.NodeID
	// memo is the interMemo stamp the list's builds walk start→host paths
	// under.
	memo uint32
	// unbuilt bounds the q of everything a best-first last layer's list will
	// hold, while it is not yet built: each candidate pays the layer's least
	// rents and, from start on, at least toDst[start].
	unbuilt float64
}

// fstPair is one opened FST–BST pair: its merger, its backward search, its
// host lists and the innerMemo stamp its builds walk host→merger paths under.
type fstPair struct {
	merger *TreeNode
	bst    *SearchTree
	hosts  [][]*TreeNode
	memo   uint32
}

// stub is one assignment of a lazy list, or a pair not yet opened (bst nil):
// what it needs of its pair to be built, its key — while unbuilt a lower
// bound on the q it builds, once built (ext set) that q, for a pair a lower
// bound on the q of all its assignments — and its ord, the eager index, by
// which equal keys go (a pair's is its first assignment's).
type stub struct {
	key    float64
	ext    *extension
	merger *TreeNode
	bst    *SearchTree
	memo   uint32
	ord    int32
}

// lazyBoundSlack is what a lazy bound gives up to rounding: a stub's, a
// pending pair's, an unbuilt list's, and bestFirst's bounds on a leaf's
// total. q and q_lb are sums of non-negative terms — prices, rents, Dijkstra
// distances, each a left-to-right sum of at most n−1 prices — and each
// computed value lies within a factor (1 ± u)^r of its exact one, u = 2⁻⁵³
// and r the roundings on the way: fewer than 2(n + m + k + 4) for n nodes, m
// links and k VNFs. While n + m + k + 4 ≤ 2²⁸, r·u < 2⁻²⁴, so q_lb·(1 −
// 2⁻²⁰), rounded, stays at or below q rounded whenever q_lb ≤ q exactly.
const lazyBoundSlack = 0x1p-20

// lazy reports whether a parallel layer's candidate lists are built
// best-first: with min-cost paths and no delay bound an assignment builds
// exactly one candidate, whose q has a lower bound (see lowerBound), and
// under MBBE's X_d cut with a way to go the screen reads only the cheapest
// few. The eager reference switch turns it off.
func (e *embedder) lazy() bool {
	return e.bounds.miniPath && e.opts.MaxDelay <= 0 && e.toDst != nil && !e.eager
}

// pricePair adds pr's assignments to cl, each a stub keyed by its lower
// bound, the first at eager index ord.
func (e *embedder) pricePair(cl *candidateList, pr *fstPair, ord int32) {
	m := e.sc.mem
	k := len(cl.spec.VNFs)
	var last []*TreeNode
	e.eachAssignment(pr, func(assignment []*TreeNode) {
		s := len(cl.stubs)
		hosts := cl.hosts[s*k : (s+1)*k]
		copy(hosts, assignment)
		key := e.lowerBound(cl, pr.merger.Node, hosts, last, m.terms)
		cl.stubs = append(cl.stubs, stub{key: key, merger: pr.merger, bst: pr.bst, memo: pr.memo, ord: ord})
		cl.order = append(cl.order, int32(s))
		cl.settle(len(cl.order) - 1)
		last, ord = hosts, ord+1
	})
}

// pendPairs makes cl a lazy list whose pairs, one per merger, wait unopened
// behind the key
//
//	q_pair = Size·(rent(m) + Σᵢ MinRent(fᵢ) + d(start, m)) + toDst[m]·Size
//
// less the rounding slack: for any hosts vᵢ, eq. 9's union pays at least
// d(start, v₁) and eq. 10 at least d(v₁, m), together at least d(start, m),
// so q_pair ≤ q_lb (see lowerBound) of every assignment. Pair i's eager
// index is i·A, its assignments' follow it, and cl's storage holds the pairs
// and all their A·len(mergers) stubs.
func (e *embedder) pendPairs(cl *candidateList, mergers []*TreeNode) {
	p, m, a, k := e.p, e.sc.mem, e.bounds.assignments, len(cl.spec.VNFs)
	n := len(mergers) * (a + 1)
	cl.stubs, cl.hosts, cl.exts = m.stubs.alloc(n)[:0], m.ptrs.alloc(n*k), m.extPtrs.alloc(n)[:0]
	cl.order = m.idx.alloc(n)[:0]
	m.terms = sized(m.terms, 3*k)
	floor := 0.0
	for _, f := range cl.spec.VNFs {
		floor += p.Net.MinRent(f)
	}
	rent := p.Net.Rents(p.Net.Catalog.Merger())
	for i, tn := range mergers {
		v := tn.Node
		key := ((rent[v]+floor+e.treeFor(cl.start, v).Dist[v])*p.Size + e.toDst[v]*p.Size) * (1 - lazyBoundSlack)
		cl.stubs = append(cl.stubs, stub{key: key, merger: tn, ord: int32(i * a)})
		cl.order = append(cl.order, int32(i))
		cl.settle(i)
	}
}

// lowerBound prices an assignment of cl's VNFs with merger m before it is
// built:
//
//	q_lb = Size·(Σᵢ rent(vᵢ) + rent(m) + maxᵢ d(start, vᵢ) + Σᵢ d(vᵢ, m)) + toDst[m]·Size
//
// less the rounding slack. The distances are those of the trees the build
// walks its paths off, so q_lb ≤ q: eq. 7 pays every rent; eq. 9 pays the
// union of the inter-layer paths once per link, at least its dearest
// member; eq. 10 pays every inner path. terms holds each VNF's rent,
// d(start, v) and d(v, m) for last, the pair's assignment priced before
// (nil: none), and is updated only where hosts differs from it: the
// odometer turns the last VNF's host fastest.
func (e *embedder) lowerBound(cl *candidateList, m graph.NodeID, hosts, last []*TreeNode, terms []float64) float64 {
	p := e.p
	rent, far, inner := p.Net.Rents(p.Net.Catalog.Merger())[m], 0.0, 0.0
	for i, tn := range hosts {
		t := terms[3*i : 3*i+3]
		if v := tn.Node; last == nil || last[i] != tn {
			t[0], t[1], t[2] = p.Net.Rents(cl.spec.VNFs[i])[v], e.treeFor(cl.start, v).Dist[v], e.treeFor(m, v).Dist[v]
		}
		rent, far, inner = rent+t[0], max(far, t[1]), inner+t[2]
	}
	return ((rent+far+inner)*p.Size + e.toDst[m]*p.Size) * (1 - lazyBoundSlack)
}

// candidate returns cl's i-th candidate in (q, eager index) order, nil past
// the last or once the run is cancelled: the order trimExtensions' stable
// sort gives an eager list, so every parent is handed the same candidates
// either way. It steps, tracing under sp, until cl has the i-th, checking the
// context before each step.
func (e *embedder) candidate(cl *candidateList, i int, sp *telemetry.Span) *extension {
	for len(cl.exts) <= i && (cl.fst == nil || len(cl.order) > 0) && e.ctx.Err() == nil {
		e.step(cl, sp)
	}
	if i < len(cl.exts) {
		return cl.exts[i]
	}
	return nil
}

// step does one unit of cl's work, its searches traced under sp. An unbuilt
// list is built (see buildExtensions). Otherwise the work is on the front of
// a lazy list's order. A built stub is handed out: every unbuilt stub would
// build a q at least its key, and a tie in q goes to the lower index. An
// unbuilt one is built — through instantiate, as an eager build would — and
// moves back to its q's place, or out if it builds nothing. A pair is opened
// and its assignments priced in.
func (e *embedder) step(cl *candidateList, sp *telemetry.Span) {
	if cl.fst == nil {
		e.buildExtensions(cl, sp)
		return
	}
	m := e.sc.mem
	s := cl.order[0]
	next := &cl.stubs[s]
	k := len(cl.spec.VNFs)
	switch {
	case next.ext != nil:
		cl.exts = append(cl.exts, next.ext)
		cl.order = cl.order[1:]
	case next.bst == nil:
		cl.order = cl.order[1:]
		m.hosts = sized(m.hosts, k)
		if pr, ok := e.openPair(cl.spec, cl.fst, next.merger, m.hosts, sp); ok {
			e.pricePair(cl, &pr, next.ord)
		}
		clear(m.hosts)
	default:
		exts := e.buildAssignment(m.extBuf[:0], cl, next.bst, next.merger, next.memo, cl.hosts[int(s)*k:int(s+1)*k])
		m.extBuf = exts[:0]
		if len(exts) == 0 {
			cl.order = cl.order[1:]
			return
		}
		next.ext, exts[0] = exts[0], nil
		e.setQ(next.ext)
		next.key = next.ext.q
		cl.settle(0)
	}
}

// before reports whether stub a comes before stub b: by key, a pair before a
// stub, then by eager index.
func (cl *candidateList) before(a, b int32) bool {
	sa, sb := &cl.stubs[a], &cl.stubs[b]
	if sa.key != sb.key {
		return sa.key < sb.key
	}
	if pa, pb := sa.bst == nil, sb.bst == nil; pa != pb {
		return pa
	}
	return sa.ord < sb.ord
}

// settle moves order[j] to its place, the rest of order being in before's
// order: a new stub's, or a built one's now keyed by its q.
func (cl *candidateList) settle(j int) {
	s := cl.order[j]
	for ; j > 0 && cl.before(s, cl.order[j-1]); j-- {
		cl.order[j] = cl.order[j-1]
	}
	for ; j+1 < len(cl.order) && cl.before(cl.order[j+1], s); j++ {
		cl.order[j] = cl.order[j+1]
	}
	cl.order[j] = s
}

// leastQ returns a lower bound on the q of cl's i-th candidate and every
// later one, building nothing: its q once handed out, else the key of the
// stub or pair next in order (+Inf past the last).
func (cl *candidateList) leastQ(i int) float64 {
	switch {
	case cl.fst == nil:
		return cl.unbuilt
	case i < len(cl.exts):
		return cl.exts[i].q
	case len(cl.order) > 0:
		return cl.stubs[cl.order[0]].key
	}
	return math.Inf(1)
}
