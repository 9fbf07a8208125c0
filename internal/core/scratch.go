package core

import (
	"sync"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
)

// pooledScratch wraps a graph.Scratch with the slot's search arena and a
// reuse marker so the dagsfc_embed_scratch_reuse_total counter can
// distinguish warm checkouts from fresh allocations (sync.Pool itself does
// not expose that).
type pooledScratch struct {
	*graph.Scratch
	// mem is the slot's arena: the run carves its search trees and its
	// candidates from it, and releaseScratchSlots resets it once the run's
	// Result (a heap copy that aliases none of that memory) is built.
	mem  *searchMem
	used bool
}

// searchMemRetainBytes caps the slab memory a slot may keep while pooled.
// A paper-scale MBBE run grows its arena to under 1 MB and BBE to a few;
// an arena past the cap was grown by a one-off huge search and is dropped
// rather than pooled — the analogue of graph.PutScratch dropping oversized
// scratches — so it cannot stay pinned behind later small runs.
const searchMemRetainBytes = 8 << 20

var embedScratchPool = sync.Pool{
	New: func() any { return &pooledScratch{Scratch: graph.NewScratch(), mem: &searchMem{}} },
}

// acquireScratch checks one scratch out of the pool, recording warm reuse.
func acquireScratch() *pooledScratch {
	ps := embedScratchPool.Get().(*pooledScratch)
	if ps.used {
		telemetry.RecordScratchReuse()
	}
	ps.used = true
	return ps
}

// acquireScratchSlots checks out one scratch per worker-pool slot. Each
// slot is owned by exactly one worker goroutine for the run, which is what
// keeps the pooled state race-free under any Workers value.
func acquireScratchSlots(n int) []*pooledScratch {
	slots := make([]*pooledScratch, n)
	for i := range slots {
		slots[i] = acquireScratch()
	}
	return slots
}

// releaseScratchSlots returns every slot to the pool, resetting each
// slot's arena first (or dropping it, past searchMemRetainBytes). The
// caller must not touch the slots, any scratch-aliasing search result, or
// any search tree, extension or sub-solution built during the run
// afterwards — the memory behind them is recycled here. Safe only after
// every worker has joined and the Result has been assembled: candidates
// carved on one slot are read from the others until then, which is why all
// slots are reset together, here and nowhere else.
func releaseScratchSlots(slots []*pooledScratch) {
	for _, ps := range slots {
		if ps.mem.bytes() > searchMemRetainBytes {
			ps.mem = &searchMem{}
		} else {
			ps.mem.reset()
		}
		embedScratchPool.Put(ps)
	}
}
