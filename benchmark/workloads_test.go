package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		sp = sp.scaled(2, false)
		a, err := generate(sp, 7)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		b, _ := generate(sp, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different request streams or fault schedules", sp.Name)
		}
		c, _ := generate(sp, 8)
		if reflect.DeepEqual(a.Ops, c.Ops) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", sp.Name)
		}
		if len(a.Ops) != sp.Ops {
			t.Errorf("%s: %d ops generated, want %d", sp.Name, len(a.Ops), sp.Ops)
		}
	}
}

func TestRequestShapes(t *testing.T) {
	durable, _ := specByName("serve-durable")
	in, err := generate(durable.scaled(2, false), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range in.Ops {
		if n := len(o.Req.Chain); n < 3 || n > 8 || o.Req.SFC != "" {
			t.Fatalf("op %d: chain of %d, sfc %q", i, n, o.Req.SFC)
		}
		seen := map[int]bool{}
		for _, c := range o.Req.Chain {
			if c < 1 || c > 8 || seen[c] {
				t.Fatalf("op %d: chain %v is not distinct stock categories", i, o.Req.Chain)
			}
			seen[c] = true
		}
		if (o.Req.TTLSeconds > 0) != ((i/durable.Clients)%2 == 1) {
			t.Fatalf("op %d: ttl %v", i, o.Req.TTLSeconds)
		}
	}

	protect, _ := specByName("serve-protect-faults")
	protect = protect.scaled(5, false)
	in, err = generate(protect, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range in.Ops {
		if (o.Req.Protection == "backup") != (i%2 == 1) {
			t.Fatalf("op %d: protection %q", i, o.Req.Protection)
		}
		if o.Req.Src == o.Req.Dst || o.Req.Rate != flowRate {
			t.Fatalf("op %d: %+v", i, o.Req)
		}
	}
	if want := (protect.Ops - protect.FaultHold - 1) / protect.FaultEvery; len(in.Faults) != want {
		t.Errorf("%d faults for %d ops, want %d", len(in.Faults), protect.Ops, want)
	}
	for _, f := range in.Faults {
		if f.At%protect.FaultEvery != 0 || f.Restore != f.At+protect.FaultHold || f.Restore >= protect.Ops {
			t.Errorf("fault %+v off schedule", f)
		}
	}
}

func TestScaling(t *testing.T) {
	sp, _ := specByName("embed-parallel")
	if got := sp.scaled(refSeconds, false); got.Ops != sp.Ops || got.Standing != sp.Standing {
		t.Errorf("reference length changed the spec: %+v", got)
	}
	if got := sp.scaled(refSeconds/2, false); got.Ops != sp.Ops/2 {
		t.Errorf("half the seconds gave %d ops, want %d", got.Ops, sp.Ops/2)
	}
	smoke := sp.scaled(refSeconds, true)
	if smoke.Ops != sp.Ops/50 || smoke.Standing >= smoke.Ops {
		t.Errorf("smoke spec %+v", smoke)
	}
}
