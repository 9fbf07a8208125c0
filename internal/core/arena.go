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
// path, instance-use and edge-use windows, the MiniPath path edges, the
// per-start and per-parent candidate lists), and the run's private cost
// views and Dijkstra trees.
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
	extLists slab[[]*extension]

	// Run-scoped graph storage. graph owns these layouts, so they recycle
	// whole instead of being carved: views[:nviews] are the cost views the
	// run compiled for itself — at most two, its capacity-only search view
	// and, when it bans elements, the path view — and pathTrees[:npathTrees]
	// the Dijkstra trees it grows on a view of its own (no store attached, or
	// a banned run), each only as far as the run reads it. reset hands all of
	// them to the next run, which recompiles the views in place and re-roots
	// the trees (graph.GrowTree.Reset undoes what the last search touched).
	views      [2]graph.CostView
	nviews     int
	pathTrees  []*graph.GrowTree
	npathTrees int

	// The run's residual rows (see residuals): resBuf, which is also
	// CompileViewInto's residual buffer while the views are compiled, and
	// instRes, its companion over instances. Overwritten whole by the next
	// run, so reset leaves them alone.
	resBuf, instRes []float64

	// interMemo and innerMemo hold the path choices of the meta-paths the
	// build under way has already walked: start→host for one buildExtensions
	// call, host→merger for one pairExtensions call.
	interMemo, innerMemo pathMemo

	// Scratch buffers reused within and across runs: their contents are
	// dead once the call that filled them returns, so they are ordinary
	// growable slices rather than slab windows.
	interEdges, innerEdges []graph.EdgeID // buildExtension's sort+merge inputs
	extBuf                 []*extension   // a build's candidates before the exact-size carve
	hosts                  [][]*TreeNode  // pairExtensions' per-VNF host lists
	hostIdx                []int          // pairExtensions' assignment odometer
	assignment             []*TreeNode    // pairExtensions' current allocation
	interChoices           [][]graph.Path // instantiate's per-meta-path choices
	innerChoices           [][]graph.Path
	specs                  []LayerSpec         // run's per-layer obligations
	required               [][]network.VNFID   // and each layer's forward-search coverage goal
	screens                []parentScreen      // run's per-parent screening slots
	leaves                 []leafCand          // run's closed leaves
	seeds                  []graph.LayeredSeed // layeredRun's entry points
	rents                  [][]float64         // layeredRun's per-layer rent rows (the network's, not copies)
	potRent                []float64           // and, for a terminal run, the least rent still ahead of each layer
	walk                   []int32             // materialise's backwards arc list
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
		&m.exts, &m.subs, &m.extPtrs, &m.subPtrs, &m.nodeIDs, &m.paths, &m.edges, &m.instUses, &m.edgeUses, &m.extLists,
	}
}

func (m *searchMem) reset() {
	for _, s := range m.slabs() {
		s.reset()
	}
	// The scratch buffers hold pointers into the slabs just cleared (and
	// into heap-born paths); drop them so a pooled arena pins nothing.
	clear(m.extBuf[:cap(m.extBuf)])
	clear(m.hosts[:cap(m.hosts)])
	clear(m.assignment[:cap(m.assignment)])
	clear(m.interChoices[:cap(m.interChoices)])
	clear(m.innerChoices[:cap(m.innerChoices)])
	clear(m.specs[:cap(m.specs)])
	clear(m.required[:cap(m.required)])
	clear(m.screens[:cap(m.screens)])
	clear(m.leaves[:cap(m.leaves)])
	clear(m.rents[:cap(m.rents)])
	m.interMemo.reset()
	m.innerMemo.reset()
	m.nviews, m.npathTrees = 0, 0
}

// newTree takes the next tree of the run's tree storage and roots it at src
// on view, nothing searched yet; it is the run's until reset. Steady state
// it allocates nothing: a tree a previous run grew is re-rooted in place.
func (m *searchMem) newTree(view *graph.CostView, src graph.NodeID) *graph.GrowTree {
	if m.npathTrees == len(m.pathTrees) {
		m.pathTrees = append(m.pathTrees, new(graph.GrowTree))
	}
	t := m.pathTrees[m.npathTrees]
	m.npathTrees++
	t.Reset(view, src)
	return t
}

// bytes reports the memory the arena's slabs and graph storage pin between
// runs.
func (m *searchMem) bytes() int {
	n := (cap(m.resBuf)+cap(m.instRes))*8 + m.interMemo.bytes() + m.innerMemo.bytes()
	for _, s := range m.slabs() {
		n += s.bytes()
	}
	for i := range m.views {
		n += m.views[i].MemBytes()
	}
	for _, t := range m.pathTrees {
		n += t.MemBytes()
	}
	return n
}

// pathMemo is a dense per-node table of path choices that is emptied in
// O(1): an entry counts only while its stamp is the current build's. The
// choices it hands out are shared by every extension that asked, so they
// are read-only from the moment they are put.
type pathMemo struct {
	stamp   []uint32
	choices [][]graph.Path
	build   uint32
}

// begin empties the memo for a new build over a graph of n nodes.
func (pm *pathMemo) begin(n int) {
	if len(pm.stamp) < n {
		pm.stamp, pm.choices = make([]uint32, n), make([][]graph.Path, n)
		pm.build = 0
	}
	pm.build++
}

// get returns what put stored for node v during the current build; an
// empty answer ("no path") is an answer.
func (pm *pathMemo) get(v graph.NodeID) ([]graph.Path, bool) {
	return pm.choices[v], pm.stamp[v] == pm.build
}

func (pm *pathMemo) put(v graph.NodeID, choices []graph.Path) {
	pm.choices[v], pm.stamp[v] = choices, pm.build
}

// reset drops the paths a finished run left behind, if it used the memo at
// all, so that a pooled arena pins none and stamps restart from zero.
func (pm *pathMemo) reset() {
	if pm.build != 0 {
		clear(pm.stamp)
		clear(pm.choices)
		pm.build = 0
	}
}

// bytes reports the memory the memo's tables pin.
func (pm *pathMemo) bytes() int {
	return cap(pm.stamp)*4 + cap(pm.choices)*int(unsafe.Sizeof([]graph.Path(nil)))
}

// sized returns buf resliced to n elements, regrown if it lacks the
// capacity; the elements are whatever the buffer last held.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}
