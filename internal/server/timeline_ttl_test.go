package server

import (
	"sync"
	"testing"
	"time"
)

// collector gathers timeline firings for assertions.
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

// Len reports the number of flows with a pending expiry.
func (tl *timeline) Len() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.heap)
}

func TestTimelineFiresDueKeysInOrder(t *testing.T) {
	c := newCollector()
	tl := newTimeline(c.expire, nil)
	defer tl.Stop()
	now := time.Now()
	// Scheduled out of deadline order; must fire in deadline order.
	tl.Schedule(3, now.Add(30*time.Millisecond))
	tl.Schedule(1, now.Add(10*time.Millisecond))
	tl.Schedule(2, now.Add(20*time.Millisecond))
	if tl.Len() != 3 {
		t.Fatalf("timeline len = %d, want 3", tl.Len())
	}
	got := c.waitN(t, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
	if tl.Len() != 0 {
		t.Fatalf("timeline len = %d after firing, want 0", tl.Len())
	}
}

func TestTimelineCancel(t *testing.T) {
	c := newCollector()
	tl := newTimeline(c.expire, nil)
	defer tl.Stop()
	now := time.Now()
	tl.Schedule(1, now.Add(10*time.Millisecond))
	tl.Schedule(2, now.Add(15*time.Millisecond))
	tl.Cancel(1)
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

func TestTimelineRescheduleSupersedes(t *testing.T) {
	c := newCollector()
	tl := newTimeline(c.expire, nil)
	defer tl.Stop()
	now := time.Now()
	tl.Schedule(1, now.Add(5*time.Millisecond))
	tl.Schedule(1, now.Add(40*time.Millisecond)) // replaces the earlier deadline
	tl.Schedule(2, now.Add(15*time.Millisecond))
	got := c.waitN(t, 2)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("fired %v, want [2 1] (reschedule pushed key 1 later)", got)
	}
	if len(got) != 2 {
		t.Fatalf("key 1 fired twice: %v", got)
	}
}

func TestTimelineStopIdempotentAndDropsPending(t *testing.T) {
	c := newCollector()
	tl := newTimeline(c.expire, nil)
	tl.Schedule(1, time.Now().Add(time.Hour))
	tl.Stop()
	tl.Stop() // must not hang or panic
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("pending expiry fired on Stop: %v", got)
	}
	// Scheduling after Stop is a no-op, not a panic.
	tl.Schedule(2, time.Now())
	time.Sleep(10 * time.Millisecond)
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("post-Stop schedule fired: %v", got)
	}
}

// TestTimelineHeapHoldsExactlyPendingKeys: a cancelled key leaves the
// heap at once and a rescheduled one moves in place, so a server that
// deletes flows long before their TTL holds no entry per deleted flow.
func TestTimelineHeapHoldsExactlyPendingKeys(t *testing.T) {
	tl := newTimeline(func(int64) {}, nil)
	defer tl.Stop()
	far := time.Now().Add(time.Hour)
	tl.Schedule(1, far)
	for k := int64(2); k < 10_002; k++ {
		tl.Schedule(k, far)
		tl.Cancel(k)
	}
	tl.Schedule(1, far.Add(time.Minute))
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.heap) != 1 || len(tl.pending) != 1 {
		t.Fatalf("heap holds %d entries and %d are pending, want exactly the one live key", len(tl.heap), len(tl.pending))
	}
	if e := tl.heap[0]; e.id != 1 || !e.at.Equal(far.Add(time.Minute)) || e.index != 0 {
		t.Fatalf("heap entry %+v, want key 1 at its rescheduled deadline", *e)
	}
}
