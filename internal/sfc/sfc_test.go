package sfc

import (
	"testing"

	"dagsfc/internal/network"
)

// paperSFC is the DAG-SFC from the paper's Fig. 2:
// [1] -> [2|3|4|5 +m] -> [6|7 +m].
func paperSFC() DAGSFC {
	return DAGSFC{Layers: []Layer{
		{VNFs: []network.VNFID{1}},
		{VNFs: []network.VNFID{2, 3, 4, 5}},
		{VNFs: []network.VNFID{6, 7}},
	}}
}

func TestDAGSFCMetrics(t *testing.T) {
	s := paperSFC()
	if s.Omega() != 3 {
		t.Fatalf("Omega = %d, want 3", s.Omega())
	}
	if s.Size() != 7 {
		t.Fatalf("Size = %d, want 7", s.Size())
	}
	if s.MaxWidth() != 4 {
		t.Fatalf("MaxWidth = %d, want 4", s.MaxWidth())
	}
}

func TestLayerQueries(t *testing.T) {
	l := Layer{VNFs: []network.VNFID{2, 3}}
	if !l.Parallel() || l.Width() != 2 {
		t.Fatal("parallel layer misreported")
	}
	single := Layer{VNFs: []network.VNFID{1}}
	if single.Parallel() {
		t.Fatal("single layer reported parallel")
	}
}

func TestFromChain(t *testing.T) {
	s := FromChain([]network.VNFID{3, 1, 2})
	if s.Omega() != 3 || s.Size() != 3 || s.MaxWidth() != 1 {
		t.Fatalf("FromChain structure wrong: %v", s)
	}
	if s.Layers[0].VNFs[0] != 3 {
		t.Fatal("chain order lost")
	}
}

func TestValidate(t *testing.T) {
	c := network.Catalog{N: 7}
	if err := paperSFC().Validate(c); err != nil {
		t.Fatal(err)
	}
	bad := DAGSFC{Layers: []Layer{{}}}
	if err := bad.Validate(c); err == nil {
		t.Fatal("empty layer validated")
	}
	dup := DAGSFC{Layers: []Layer{{VNFs: []network.VNFID{2, 2}}}}
	if err := dup.Validate(c); err == nil {
		t.Fatal("duplicate in layer validated")
	}
	merger := DAGSFC{Layers: []Layer{{VNFs: []network.VNFID{c.Merger()}}}}
	if err := merger.Validate(c); err == nil {
		t.Fatal("merger as layer member validated")
	}
	dummy := DAGSFC{Layers: []Layer{{VNFs: []network.VNFID{network.Dummy}}}}
	if err := dummy.Validate(c); err == nil {
		t.Fatal("dummy as layer member validated")
	}
}

func TestSequencePreservesOrder(t *testing.T) {
	s := paperSFC()
	seq := s.Sequence()
	want := []network.VNFID{1, 2, 3, 4, 5, 6, 7}
	if len(seq) != len(want) {
		t.Fatalf("Sequence = %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("Sequence = %v, want %v", seq, want)
		}
	}
}

func TestString(t *testing.T) {
	if got := paperSFC().String(); got != "[1] -> [2|3|4|5 +m] -> [6|7 +m]" {
		t.Fatalf("String = %q", got)
	}
	if got := (DAGSFC{}).String(); got != "[]" {
		t.Fatalf("empty String = %q", got)
	}
}
