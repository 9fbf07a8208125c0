package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "replay.admit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.embed", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "graph.dijkstra", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "wal.append", Start: 50, End: 80},  // overlaps span 2 by 10
		{ID: 5, Parent: 1, Name: "wal.append", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Parent: 0, Name: "replay.release", Start: 200, End: 210},
	}
	want := []int64{
		100 - (50 + 20 + 10), // children cover [10,60], [60,80], [90,100]
		50 - 10,
		10,
		30,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}

	rows := waterfall(spans)
	if len(rows) != 5 || rows[0].Name != "replay.admit" || rows[3].Name != "wal.append" {
		t.Fatalf("waterfall rows out of first-appearance order: %+v", rows)
	}
	if w := rows[3]; w.Count != 2 || w.Total != 60 || w.Self != 60 || w.layer() != "wal" {
		t.Errorf("wal.append row = %+v", w)
	}
}

func TestSelfTimesOnASubSlice(t *testing.T) {
	// The serve traced pass reduces each replay leg on its own slice of
	// the span list; parent links are IDs, not indexes.
	spans := []span{
		{ID: 7, Parent: 0, Name: "server.submit", Start: 0, End: 10},
		{ID: 8, Parent: 0, Name: "replay.admit", Start: 20, End: 50},
		{ID: 9, Parent: 8, Name: "core.embed", Start: 25, End: 45},
	}
	got := selfTimes(spans[1:])
	if got[0] != 10 || got[1] != 20 {
		t.Errorf("self times on a sub-slice = %v, want [10 20]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, 0, "core.embed")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
