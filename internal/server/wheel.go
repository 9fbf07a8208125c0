package server

import (
	"container/heap"
	"sync"
	"time"
)

// expiryWheel schedules flow departures in real time: a min-heap of
// deadlines served by one goroutine that calls expire for each due flow, in
// deadline order (ties by scheduling order). It backs the server's per-flow
// TTL auto-release — the wall-clock counterpart of the offline driver's
// departure events (internal/online). Each entry knows its place in the
// heap, so Cancel removes it and a second Schedule of a flow moves it: the
// heap holds exactly the pending flows. All methods are safe for concurrent
// use; expire runs on the wheel's own goroutine, never under the caller's
// locks.
type expiryWheel struct {
	expire func(int64)

	mu      sync.Mutex
	heap    expiryHeap
	pending map[int64]*expiryEntry
	seq     uint64
	wake    chan struct{} // buffered(1): nudges the goroutine after Schedule
	stopped bool
	done    chan struct{}
}

// newExpiryWheel starts a wheel whose goroutine calls expire for each due
// flow. Stop it to release the goroutine.
func newExpiryWheel(expire func(int64)) *expiryWheel {
	w := &expiryWheel{
		expire:  expire,
		pending: make(map[int64]*expiryEntry),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go w.run()
	return w
}

// Schedule arranges for id to expire at the given time. Re-scheduling an id
// replaces its previous deadline.
func (w *expiryWheel) Schedule(id int64, at time.Time) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.seq++
	if e := w.pending[id]; e != nil {
		e.at, e.seq = at, w.seq
		heap.Fix(&w.heap, e.index)
	} else {
		e := &expiryEntry{at: at, id: id, seq: w.seq}
		w.pending[id] = e
		heap.Push(&w.heap, e)
	}
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Cancel forgets id's pending expiry (a no-op if none is pending).
func (w *expiryWheel) Cancel(id int64) {
	w.mu.Lock()
	if e := w.pending[id]; e != nil {
		heap.Remove(&w.heap, e.index)
		delete(w.pending, id)
	}
	w.mu.Unlock()
}

// Len reports the number of flows with a pending expiry.
func (w *expiryWheel) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.heap)
}

// Stop shuts the wheel's goroutine down, dropping pending expiries, and
// waits for an in-flight expire callback to return. Safe to call twice.
func (w *expiryWheel) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		<-w.done
		return
	}
	w.stopped = true
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-w.done
}

func (w *expiryWheel) run() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		// Fire everything due.
		var due []int64
		now := time.Now()
		for len(w.heap) > 0 && !w.heap[0].at.After(now) {
			e := heap.Pop(&w.heap).(*expiryEntry)
			delete(w.pending, e.id)
			due = append(due, e.id)
		}
		var wait time.Duration = time.Hour
		if len(w.heap) > 0 {
			wait = time.Until(w.heap[0].at)
		}
		w.mu.Unlock()
		for _, id := range due {
			w.expire(id)
		}
		if len(due) > 0 {
			continue // deadlines may have moved while expiring
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-w.wake:
		}
	}
}

type expiryEntry struct {
	at    time.Time
	id    int64
	seq   uint64 // scheduling order; breaks deadline ties deterministically
	index int    // position in the heap, kept by Swap, Push and Pop
}

type expiryHeap []*expiryEntry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h expiryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *expiryHeap) Push(x any) {
	e := x.(*expiryEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
