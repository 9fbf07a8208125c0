package server

import (
	"container/heap"
	"sync"
	"time"
)

// ExpiryWheel schedules flow departures in real time: a min-heap of
// deadlines served by one goroutine that invokes the expire callback for
// each due key, in deadline order (ties by scheduling order). It backs the
// server's per-flow TTL auto-release — the wall-clock counterpart of the
// offline driver's departure events (internal/online). All methods are
// safe for concurrent use; expire runs on the wheel's own goroutine, never
// under the caller's locks.
type ExpiryWheel[K comparable] struct {
	expire func(K)

	mu      sync.Mutex
	entries expiryHeap[K]
	gen     map[K]uint64 // current generation per key; stale pops are dropped
	nextGen uint64
	seq     uint64
	wake    chan struct{} // buffered(1): nudges the goroutine after Schedule
	stopped bool
	done    chan struct{}
}

// NewExpiryWheel starts a wheel whose goroutine calls expire for each due
// key. Stop it to release the goroutine.
func NewExpiryWheel[K comparable](expire func(K)) *ExpiryWheel[K] {
	w := &ExpiryWheel[K]{
		expire: expire,
		gen:    make(map[K]uint64),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go w.run()
	return w
}

// Schedule arranges for key to expire at the given time. Re-scheduling a
// key replaces its previous deadline.
func (w *ExpiryWheel[K]) Schedule(key K, at time.Time) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.nextGen++
	w.gen[key] = w.nextGen
	w.seq++
	heap.Push(&w.entries, expiryEntry[K]{at: at, key: key, gen: w.nextGen, seq: w.seq})
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Cancel forgets key's pending expiry (a no-op if none is pending).
func (w *ExpiryWheel[K]) Cancel(key K) {
	w.mu.Lock()
	delete(w.gen, key)
	w.mu.Unlock()
}

// Len reports the number of keys with a pending expiry.
func (w *ExpiryWheel[K]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.gen)
}

// Stop shuts the wheel's goroutine down, dropping pending expiries, and
// waits for an in-flight expire callback to return. Safe to call twice.
func (w *ExpiryWheel[K]) Stop() {
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

func (w *ExpiryWheel[K]) run() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		// Fire everything due, dropping canceled/superseded entries.
		var due []K
		now := time.Now()
		for len(w.entries) > 0 {
			e := w.entries[0]
			if w.gen[e.key] != e.gen {
				heap.Pop(&w.entries)
				continue
			}
			if e.at.After(now) {
				break
			}
			heap.Pop(&w.entries)
			delete(w.gen, e.key)
			due = append(due, e.key)
		}
		var wait time.Duration = time.Hour
		if len(w.entries) > 0 {
			wait = time.Until(w.entries[0].at)
		}
		w.mu.Unlock()
		for _, key := range due {
			w.expire(key)
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

type expiryEntry[K comparable] struct {
	at  time.Time
	key K
	gen uint64
	seq uint64 // scheduling order; breaks deadline ties deterministically
}

type expiryHeap[K comparable] []expiryEntry[K]

func (h expiryHeap[K]) Len() int { return len(h) }
func (h expiryHeap[K]) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h expiryHeap[K]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap[K]) Push(x any)   { *h = append(*h, x.(expiryEntry[K])) }
func (h *expiryHeap[K]) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
