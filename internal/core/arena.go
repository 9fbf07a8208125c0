package core

import (
	"slices"
	"unsafe"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// slab is a reusable bump allocator: alloc carves capacity-capped windows
// out of large chunks, and reset rewinds the cursor so the same chunks
// serve the next run — the steady-state allocation count for search
// memory drops to zero once the chunks have grown to a run's working set.
// Not safe for concurrent use.
type slab[T any] struct {
	chunks [][]T
	ci     int // chunk currently being carved
	off    int // carve offset into chunks[ci]
}

// slabMinChunk is the smallest chunk a slab allocates; larger requests get
// a power-of-two chunk that fits.
const slabMinChunk = 1024

// reserve returns an empty window with capacity of at least n at the carve
// cursor, without advancing it: the caller appends up to n elements and
// hands the result to commit, which carves exactly what was written. This
// is how a window whose length is only bounded up front (a path walk, a
// merged edge list) takes no more slab than it ends up using. Nothing else
// may be carved from the slab between a reserve and the commit or abandon
// that must end it.
func (s *slab[T]) reserve(n int) []T {
	for {
		if s.ci < len(s.chunks) {
			if c := s.chunks[s.ci]; s.off+n <= len(c) {
				return c[s.off:s.off:len(c)]
			}
			s.ci++
			s.off = 0
			continue
		}
		size := slabMinChunk
		for size < n {
			size *= 2
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
}

// commit carves w — the window reserve returned, grown by appends within
// its capacity — and returns it capped to its length, so a later append
// reallocates instead of clobbering a neighbouring window. An empty w
// yields nil.
func (s *slab[T]) commit(w []T) []T {
	if len(w) == 0 {
		return nil
	}
	if &w[0] != &s.chunks[s.ci][s.off] {
		panic("core: slab window outgrew its reservation")
	}
	s.off += len(w)
	return w[:len(w):len(w)]
}

// abandon gives up a reservation without carving it, zeroing whatever was
// appended so the slab beyond the cursor stays zeroed.
func (s *slab[T]) abandon(w []T) { clear(w) }

// alloc returns a zeroed window of n elements with capacity exactly n.
// Windows are zeroed because chunks are born from make, reset clears
// everything carved, and nothing beyond the cursor is left written; a
// window is never re-carved before the next reset.
func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	return s.commit(s.reserve(n)[:n])
}

// one carves a single zeroed element. The slab is chunked, never moved, so
// the pointer stays valid until the next reset.
func (s *slab[T]) one() *T { return &s.alloc(1)[0] }

// reset rewinds the slab and zeroes what it carved — the chunks it moved
// past and the carved prefix of the current one — releasing retained
// pointers to the collector and restoring the zeroed-window invariant for
// the next run.
func (s *slab[T]) reset() {
	for i := 0; i < s.ci && i < len(s.chunks); i++ {
		clear(s.chunks[i])
	}
	if s.ci < len(s.chunks) {
		clear(s.chunks[s.ci][:s.off])
	}
	s.ci, s.off = 0, 0
}

// bytes reports the memory the slab's chunks pin.
func (s *slab[T]) bytes() int {
	var zero T
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n * int(unsafe.Sizeof(zero))
}

// searchMem is the arena behind one embedding run. Every allocation the
// search retains until the run ends comes from it: the search trees
// (TreeNode blocks, Available/Prev/Next windows, node lists, by-node
// indexes), the candidates (extension and subSolution structs, their node,
// path, instance-use and edge-use windows, the min-cost path edges, the
// per-start and per-parent candidate lists), and the run's cost views and
// Dijkstra trees, which store keeps for later runs.
//
// Ownership: an embed runs on one goroutine over one arena, checked out
// with its pooledScratch for the length of the run and reset in
// releaseScratch once the Result has been assembled. assemble copies the
// winning chain to the heap, so nothing reachable from a Result aliases
// this memory.
type searchMem struct {
	trees slab[SearchTree]
	nodes slab[TreeNode]
	vnfs  slab[network.VNFID]
	links slab[TreeLink]
	ptrs  slab[*TreeNode]
	idx   slab[int32]

	exts     slab[extension]
	subs     slab[subSolution]
	extPtrs  slab[*extension]
	subPtrs  slab[*subSolution]
	nodeIDs  slab[graph.NodeID]
	paths    slab[graph.Path]
	edges    slab[graph.EdgeID]
	instUses slab[InstanceUseKey]
	edgeUses slab[edgeUse]
	stubs    slab[stub]

	// Graph storage. graph owns these layouts, so they recycle whole instead
	// of being carved. store holds the run's capacity-only search view and
	// keeps the Dijkstra trees grown on it from one run to the next, for as
	// long as the arcs it admits stay the same: a run resumes a kept tree
	// instead of re-rooting it (a run without a ledger forgets them first),
	// and compiles the view only when its residual row displaces it. private
	// holds a banned run's path view and the trees grown on it, forgotten by
	// reset. recycle trims store to what graph.MaxPooledBytes leaves room for.
	store, private graph.TreeStore

	// The run's residual rows (see residuals): resBuf over edges, which both
	// stores bind over, and instRes, its companion over instances.
	// Overwritten whole by the next run, so reset leaves them alone.
	resBuf, instRes []float64

	// interMemo and innerMemo hold the path choices of the meta-paths the
	// run has already walked: start→host, one owner per (layer, start) list,
	// and host→merger, one per FST–BST pair.
	interMemo, innerMemo pathMemo

	// Scratch buffers reused within and across runs: their contents are
	// dead once the call that filled them returns, so they are ordinary
	// growable slices rather than slab windows.
	interEdges, innerEdges []graph.EdgeID  // buildExtension's sort+merge inputs
	extBuf                 []*extension    // a build's candidates before the exact-size carve
	lists                  []candidateList // a layer's candidate lists, one per start
	hosts                  [][]*TreeNode   // an opened FST–BST pair's per-VNF host lists
	interChoices           [][]graph.Path  // instantiate's per-meta-path choices
	innerChoices           [][]graph.Path
	cats                   []network.VNFID     // run's categories, the instance rows it reads
	specs                  []LayerSpec         // run's per-layer obligations
	required               [][]network.VNFID   // and each layer's forward-search coverage goal
	screens                []parentScreen      // run's per-parent screening slots
	queue                  []screenItem        // bestFirst's heap
	ranks                  []float64           // screenParent's lowest ranks
	leaves                 []leafCand          // run's closed leaves
	seeds                  []graph.LayeredSeed // layeredRun's entry points
	rents                  [][]float64         // layeredRun's per-layer rent rows (the network's, not copies)
	potRent                []float64           // and, for a terminal run, the least rent still ahead of each layer
	walk                   []int32             // materialise's backwards arc list
	keys                   []float64           // nodesByKey's keys
	terms                  []float64           // lowerBound's per-VNF terms
}

// slabs lists every slab of the arena: the one place reset and bytes learn
// about a new one.
func (m *searchMem) slabs() [16]interface {
	reset()
	bytes() int
} {
	return [...]interface {
		reset()
		bytes() int
	}{
		&m.trees, &m.nodes, &m.vnfs, &m.links, &m.ptrs, &m.idx,
		&m.exts, &m.subs, &m.extPtrs, &m.subPtrs, &m.nodeIDs, &m.paths, &m.edges, &m.instUses, &m.edgeUses, &m.stubs,
	}
}

// reset readies the arena for the next run, clearing only what the run
// used: each slab's carved prefix, each memo's touched entries, and the
// scratch buffers that hold pointers — into the slabs, the problem's SFC,
// the network's rent rows, heap-born paths — so that a pooled arena pins
// nothing of the run. Those buffers are clear beyond what the run used,
// since the last reset cleared them: the per-layer ones reach at most the
// run's layer count or its widest layer, extBuf, lists, hosts, screens and
// queue are cleared where they are used, and leaves is never shortened
// within a run.
func (m *searchMem) reset() {
	for _, s := range m.slabs() {
		s.reset()
	}
	layers, width := len(m.specs), 0
	for _, spec := range m.specs {
		width = max(width, len(spec.VNFs))
	}
	clear(m.specs)
	clear(m.required)
	clear(m.rents[:min(layers, cap(m.rents))])
	clear(m.interChoices[:min(width, cap(m.interChoices))])
	clear(m.innerChoices[:min(width, cap(m.innerChoices))])
	clear(m.leaves)
	m.interMemo.reset()
	m.innerMemo.reset()
	m.private.Forget()
}

// bytes reports the memory the arena pins between runs.
func (m *searchMem) bytes() int { return m.runBytes() + m.store.MemBytes() }

// runBytes is bytes without store: the slabs, rows, memos and private
// view and trees.
func (m *searchMem) runBytes() int {
	n := (cap(m.resBuf)+cap(m.instRes))*8 + m.interMemo.bytes() + m.innerMemo.bytes() + m.private.MemBytes()
	for _, s := range m.slabs() {
		n += s.bytes()
	}
	return n
}

// pathMemo is a dense per-node table of path choices, each entry stamped
// with its owner: a (layer, start) list for start→host paths, an FST–BST
// pair for host→merger ones. It serves one owner at a time, and an entry
// counts only while its stamp is that owner's, so a lazy list's builds can
// interleave owners, re-walking only a node another owner took over since.
// The choices it hands out are shared by every extension that asked, so
// they are read-only from the moment they are put.
type pathMemo struct {
	stamp   []uint32
	choices [][]graph.Path
	touched []int32 // the nodes put since the last reset
	// build is the last stamp handed out, cur the owner served.
	build, cur uint32
}

// begin hands a new owner its stamp, over a graph of n nodes, and serves it.
func (pm *pathMemo) begin(n int) uint32 {
	if len(pm.stamp) < n {
		pm.stamp, pm.choices, pm.touched = make([]uint32, n), make([][]graph.Path, n), make([]int32, 0, n)
	}
	pm.build++
	pm.cur = pm.build
	return pm.cur
}

// serve switches the memo to the owner begin handed stamp.
func (pm *pathMemo) serve(stamp uint32) { pm.cur = stamp }

// get returns what put stored for node v for the owner served; an empty
// answer ("no path") is an answer.
func (pm *pathMemo) get(v graph.NodeID) ([]graph.Path, bool) {
	return pm.choices[v], pm.stamp[v] == pm.cur
}

func (pm *pathMemo) put(v graph.NodeID, choices []graph.Path) {
	if pm.stamp[v] == 0 {
		pm.touched = append(pm.touched, int32(v))
	}
	pm.choices[v], pm.stamp[v] = choices, pm.cur
}

// reset drops the paths a finished run left behind, entry by entry, so that
// a pooled arena pins none and stamps restart from zero.
func (pm *pathMemo) reset() {
	for _, v := range pm.touched {
		pm.stamp[v], pm.choices[v] = 0, nil
	}
	pm.touched = pm.touched[:0]
	pm.build, pm.cur = 0, 0
}

// bytes reports the memory the memo's tables pin.
func (pm *pathMemo) bytes() int {
	return (cap(pm.stamp)+cap(pm.touched))*4 + cap(pm.choices)*int(unsafe.Sizeof([]graph.Path(nil)))
}

// sized returns buf resliced to n elements, regrown if it lacks the
// capacity; the elements are whatever the buffer last held.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}
