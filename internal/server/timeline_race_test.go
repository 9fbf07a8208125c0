package server

import (
	"sync"
	"testing"
	"time"
)

// TestTimelineCancelBeforeDue pins cancel and reschedule without
// concurrency: a cancelled key never fires, a superseded deadline fires
// exactly once (at the newest deadline), and cancel-then-reschedule fires.
func TestTimelineCancelBeforeDue(t *testing.T) {
	var mu sync.Mutex
	fired := map[int64]int{}
	tl := newTimeline(func(k int64) {
		mu.Lock()
		fired[k]++
		mu.Unlock()
	}, nil)
	defer tl.Stop()

	now := time.Now()
	tl.Schedule(1, now.Add(30*time.Millisecond))
	tl.Cancel(1) // must never fire

	tl.Schedule(2, now.Add(10*time.Hour))        // would fire far in the future...
	tl.Schedule(2, now.Add(20*time.Millisecond)) // ...superseded: fires once, soon

	tl.Schedule(3, now.Add(25*time.Millisecond))
	tl.Cancel(3)
	tl.Schedule(3, now.Add(20*time.Millisecond)) // cancel then re-arm: fires

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := fired[2] >= 1 && fired[3] >= 1
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond) // would catch a late, stale firing of key 1
	mu.Lock()
	defer mu.Unlock()
	if fired[1] != 0 {
		t.Fatalf("cancelled key fired %d times", fired[1])
	}
	if fired[2] != 1 {
		t.Fatalf("superseded key fired %d times, want exactly 1", fired[2])
	}
	if fired[3] != 1 {
		t.Fatalf("re-armed key fired %d times, want exactly 1", fired[3])
	}
}

// TestTimelineGenerationCancelRace hammers Schedule/Cancel for the
// same keys from many goroutines while the timeline is actively firing. Run
// under -race this doubles as the timeline's memory-model test; the
// assertions bound what the races allow: once a key's final Schedule
// (issued after every Cancel) is in, the key fires at least once and the
// timeline drains to empty.
func TestTimelineGenerationCancelRace(t *testing.T) {
	const keys = 31
	const goroutines = 8
	const rounds = 120

	var mu sync.Mutex
	fired := map[int64]int{}
	tl := newTimeline(func(k int64) {
		mu.Lock()
		fired[k]++
		mu.Unlock()
	}, nil)
	defer tl.Stop()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := int64((g*rounds + i) % keys)
				// Mix immediate-past, imminent and far deadlines so pops,
				// stale drops and timer resets all interleave.
				switch i % 3 {
				case 0:
					tl.Schedule(key, time.Now().Add(-time.Millisecond))
				case 1:
					tl.Schedule(key, time.Now().Add(time.Duration(i%5)*time.Millisecond))
				case 2:
					tl.Schedule(key, time.Now().Add(time.Hour))
				}
				if i%2 == 0 {
					tl.Cancel(key)
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesce: re-arm every key once with a near deadline; each must fire
	// at least once more and the timeline must drain completely (no entry
	// stranded by the race).
	mu.Lock()
	baseline := make(map[int64]int, keys)
	for k, n := range fired {
		baseline[k] = n
	}
	mu.Unlock()
	for k := int64(0); k < keys; k++ {
		tl.Schedule(k, time.Now().Add(2*time.Millisecond))
	}
	deadline := time.Now().Add(5 * time.Second)
	for tl.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := tl.Len(); got != 0 {
		t.Fatalf("timeline did not drain: %d pending", got)
	}
	// Len drops a key when the timeline takes it off the heap, before its
	// expire call runs: wait for the calls, not for Len.
	unfired := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		for k := int64(0); k < keys; k++ {
			if fired[k] <= baseline[k] {
				return k, true
			}
		}
		return 0, false
	}
	for k, ok := unfired(); ok; k, ok = unfired() {
		if time.Now().After(deadline) {
			t.Fatalf("key %d never fired after its final schedule (%d firings before it)", k, baseline[k])
		}
		time.Sleep(time.Millisecond)
	}
}
