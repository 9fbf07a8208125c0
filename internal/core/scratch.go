package core

import (
	"sync"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
)

// pooledScratch is everything one embedding run works in: a graph.Scratch
// for its searches, the arena the run carves from, and the run's embedder. A
// run holds exactly one, on one goroutine.
type pooledScratch struct {
	*graph.Scratch
	// mem is the run's arena: it carves its search trees and candidates
	// from it and keeps its views and Dijkstra trees in it, and
	// releaseScratch resets it once the run's Result (a heap copy that
	// aliases none of that memory) is built.
	mem *searchMem
	// e is the run's embedder, filled by newEmbedder and zeroed on release,
	// so that no problem, ledger, context or ban set outlives the run here.
	e embedder
}

// searchMemRetainBytes caps the memory an arena may keep while pooled. A
// paper-scale MBBE run grows its slabs to under 1 MB and BBE to a few; the
// tree store fills what they leave, a tree for every root of a 500-node
// substrate at 24 bytes a node (TestArenaKeepsEveryRootAtPaperScale). An
// arena whose slabs alone pass the cap was grown by a one-off huge search
// and is dropped rather than pooled — the analogue of graph.PutScratch
// dropping oversized scratches — so it cannot stay pinned behind later
// small runs. The run's graph.Scratch is held to the same cap on its own:
// its layered rows (32 bytes a state, (k+1)·n states) only ever grow.
const searchMemRetainBytes = 8 << 20

var embedScratchPool = sync.Pool{New: func() any { return newPooledScratch() }}

func newPooledScratch() *pooledScratch {
	return &pooledScratch{Scratch: graph.NewScratch(), mem: &searchMem{}}
}

// acquireScratch checks a scratch out of the pool.
func acquireScratch() *pooledScratch {
	return embedScratchPool.Get().(*pooledScratch)
}

// releaseScratch recycles ps and returns it to the pool.
func releaseScratch(ps *pooledScratch) {
	ps.recycle()
	embedScratchPool.Put(ps)
}

// recycle readies ps for the next run by zeroing its embedder, replacing
// its graph.Scratch if that alone passes searchMemRetainBytes, resetting
// its arena and trimming the arena's store to the cap (or dropping the
// arena, past the cap without it). The caller must not touch
// the embedder, any scratch-aliasing search result, or any view, tree,
// search tree, extension or sub-solution of the finished run afterwards —
// the memory behind them is recycled here. Safe only after the Result has
// been assembled.
func (ps *pooledScratch) recycle() {
	ps.e = embedder{}
	if ps.Scratch.MemBytes() > searchMemRetainBytes {
		ps.Scratch = graph.NewScratch()
	}
	budget := searchMemRetainBytes - ps.mem.runBytes()
	if budget < 0 {
		ps.mem = &searchMem{}
		return
	}
	ps.mem.reset()
	telemetry.RecordPathCacheEvictions(ps.mem.store.Trim(budget))
}
