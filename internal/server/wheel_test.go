package server

import (
	"sync"
	"testing"
	"time"
)

// collector gathers wheel firings for assertions.
type collector struct {
	mu   sync.Mutex
	keys []int64
	cond chan struct{}
}

func newCollector() *collector {
	return &collector{cond: make(chan struct{}, 64)}
}

func (c *collector) expire(k int64) {
	c.mu.Lock()
	c.keys = append(c.keys, k)
	c.mu.Unlock()
	c.cond <- struct{}{}
}

func (c *collector) snapshot() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.keys...)
}

func (c *collector) waitN(t *testing.T, n int) []int64 {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if got := c.snapshot(); len(got) >= n {
			return got
		}
		select {
		case <-c.cond:
		case <-deadline:
			t.Fatalf("timed out waiting for %d expiries, have %v", n, c.snapshot())
		}
	}
}

func TestExpiryWheelFiresDueKeysInOrder(t *testing.T) {
	c := newCollector()
	w := newExpiryWheel(c.expire)
	defer w.Stop()
	now := time.Now()
	// Scheduled out of deadline order; must fire in deadline order.
	w.Schedule(3, now.Add(30*time.Millisecond))
	w.Schedule(1, now.Add(10*time.Millisecond))
	w.Schedule(2, now.Add(20*time.Millisecond))
	if w.Len() != 3 {
		t.Fatalf("wheel len = %d, want 3", w.Len())
	}
	got := c.waitN(t, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel len = %d after firing, want 0", w.Len())
	}
}

func TestExpiryWheelCancel(t *testing.T) {
	c := newCollector()
	w := newExpiryWheel(c.expire)
	defer w.Stop()
	now := time.Now()
	w.Schedule(1, now.Add(10*time.Millisecond))
	w.Schedule(2, now.Add(15*time.Millisecond))
	w.Cancel(1)
	got := c.waitN(t, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("fired %v, want [2]", got)
	}
	// Give a canceled late firing a chance to (wrongly) appear.
	time.Sleep(30 * time.Millisecond)
	if got := c.snapshot(); len(got) != 1 {
		t.Fatalf("canceled key fired anyway: %v", got)
	}
}

func TestExpiryWheelRescheduleSupersedes(t *testing.T) {
	c := newCollector()
	w := newExpiryWheel(c.expire)
	defer w.Stop()
	now := time.Now()
	w.Schedule(1, now.Add(5*time.Millisecond))
	w.Schedule(1, now.Add(40*time.Millisecond)) // replaces the earlier deadline
	w.Schedule(2, now.Add(15*time.Millisecond))
	got := c.waitN(t, 2)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("fired %v, want [2 1] (reschedule pushed key 1 later)", got)
	}
	if len(got) != 2 {
		t.Fatalf("key 1 fired twice: %v", got)
	}
}

func TestExpiryWheelStopIdempotentAndDropsPending(t *testing.T) {
	c := newCollector()
	w := newExpiryWheel(c.expire)
	w.Schedule(1, time.Now().Add(time.Hour))
	w.Stop()
	w.Stop() // must not hang or panic
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("pending expiry fired on Stop: %v", got)
	}
	// Scheduling after Stop is a no-op, not a panic.
	w.Schedule(2, time.Now())
	time.Sleep(10 * time.Millisecond)
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("post-Stop schedule fired: %v", got)
	}
}

// TestExpiryWheelHeapHoldsExactlyPendingKeys: a cancelled key leaves the
// heap at once and a rescheduled one moves in place, so a server that
// deletes flows long before their TTL holds no entry per deleted flow.
func TestExpiryWheelHeapHoldsExactlyPendingKeys(t *testing.T) {
	w := newExpiryWheel(func(int64) {})
	defer w.Stop()
	far := time.Now().Add(time.Hour)
	w.Schedule(1, far)
	for k := int64(2); k < 10_002; k++ {
		w.Schedule(k, far)
		w.Cancel(k)
	}
	w.Schedule(1, far.Add(time.Minute))
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.heap) != 1 || len(w.pending) != 1 {
		t.Fatalf("heap holds %d entries and %d are pending, want exactly the one live key", len(w.heap), len(w.pending))
	}
	if e := w.heap[0]; e.id != 1 || !e.at.Equal(far.Add(time.Minute)) || e.index != 0 {
		t.Fatalf("heap entry %+v, want key 1 at its rescheduled deadline", *e)
	}
}
