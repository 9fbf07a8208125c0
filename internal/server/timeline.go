package server

import (
	"container/heap"
	"sync"
	"time"
)

// timeline is the server's deferred work: one goroutine, one timer and one
// mutex serving two queues, each item when it falls due. TTL departures
// sit in a min-heap of deadlines and fire in deadline order, ties by
// scheduling order — the wall-clock counterpart of the offline driver's
// departure events (internal/online). Each entry knows its place in the
// heap, so Cancel removes it and a second Schedule moves it: the heap holds
// exactly the pending flows. Restores queue FIFO: restore makes one attempt
// at the head task and reports when the next is due (zero when the task is
// finished), and the head keeps its place until then: one flow's retries
// all run before the next flow's first, which keeps the repair order
// deterministic. Due expiries fire before a due retry. Callbacks run on the goroutine, never under a lock, so
// an expiry that falls due during a restore attempt fires when the attempt
// returns. All methods are safe for concurrent use.
type timeline struct {
	expire  func(int64)
	restore func(*repairTask) time.Time

	mu       sync.Mutex
	heap     expiryHeap
	pending  map[int64]*expiryEntry
	seq      uint64
	restores []*repairTask
	retryAt  time.Time     // when the head restore's next attempt is due
	wake     chan struct{} // buffered(1): nudges the goroutine
	stopped  bool
	done     chan struct{}
}

// newTimeline starts a timeline's goroutine. Stop it to release it.
func newTimeline(expire func(int64), restore func(*repairTask) time.Time) *timeline {
	tl := &timeline{
		expire:  expire,
		restore: restore,
		pending: make(map[int64]*expiryEntry),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go tl.run()
	return tl
}

// Schedule arranges for id to expire at the given time. Re-scheduling an id
// replaces its previous deadline.
func (tl *timeline) Schedule(id int64, at time.Time) {
	tl.mu.Lock()
	tl.seq++
	if e := tl.pending[id]; e != nil {
		e.at, e.seq = at, tl.seq
		heap.Fix(&tl.heap, e.index)
	} else {
		e := &expiryEntry{at: at, id: id, seq: tl.seq}
		tl.pending[id] = e
		heap.Push(&tl.heap, e)
	}
	tl.mu.Unlock()
	tl.kick()
}

// Cancel forgets id's pending expiry (a no-op if none is pending).
func (tl *timeline) Cancel(id int64) {
	tl.mu.Lock()
	if e := tl.pending[id]; e != nil {
		heap.Remove(&tl.heap, e.index)
		delete(tl.pending, id)
	}
	tl.mu.Unlock()
}

// Enqueue queues restore tasks behind those already waiting. The queue is
// unbounded on purpose: a large fault may strand many flows and dropping
// any would leak their "repairing" state forever.
func (tl *timeline) Enqueue(tasks ...*repairTask) {
	tl.mu.Lock()
	tl.restores = append(tl.restores, tasks...)
	tl.mu.Unlock()
	tl.kick()
}

// Restores reports the restore tasks queued, the one in hand included.
func (tl *timeline) Restores() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.restores)
}

// Stop shuts the timeline's goroutine down and waits for an in-flight
// callback to return. Pending expiries and restores are dropped, a
// backed-off retry too: a restart re-derives them from the WAL. Safe to
// call twice.
func (tl *timeline) Stop() {
	tl.mu.Lock()
	tl.stopped = true
	tl.mu.Unlock()
	tl.kick()
	<-tl.done
}

func (tl *timeline) kick() {
	select {
	case tl.wake <- struct{}{}:
	default:
	}
}

func (tl *timeline) run() {
	defer close(tl.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		tl.mu.Lock()
		if tl.stopped {
			tl.mu.Unlock()
			return
		}
		// Take everything due: the expiries, else the head restore.
		var due []int64
		var task *repairTask
		now := time.Now()
		for len(tl.heap) > 0 && !tl.heap[0].at.After(now) {
			e := heap.Pop(&tl.heap).(*expiryEntry)
			delete(tl.pending, e.id)
			due = append(due, e.id)
		}
		wait := time.Hour
		if len(tl.heap) > 0 {
			wait = tl.heap[0].at.Sub(now)
		}
		if len(tl.restores) > 0 {
			if len(due) == 0 && !tl.retryAt.After(now) {
				task = tl.restores[0]
			}
			wait = min(wait, tl.retryAt.Sub(now))
		}
		tl.mu.Unlock()
		for _, id := range due {
			tl.expire(id)
		}
		if task != nil {
			retryAt := tl.restore(task)
			tl.mu.Lock()
			if tl.retryAt = retryAt; retryAt.IsZero() {
				tl.restores = tl.restores[1:]
			}
			tl.mu.Unlock()
		}
		if len(due) > 0 || task != nil {
			continue // deadlines may have moved meanwhile
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
		case <-tl.wake:
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
