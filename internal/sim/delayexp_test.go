package sim

import (
	"strings"
	"testing"

	"dagsfc/internal/core"
)

func TestRunDelayHybridWins(t *testing.T) {
	points, err := RunDelay([]int{3, 5}, 3, 5, core.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.HybridDelay.N == 0 {
			t.Fatalf("size %d: no successful trials", p.Size)
		}
		if p.HybridDelay.Mean >= p.SeqDelay.Mean {
			t.Fatalf("size %d: hybrid delay %v not below sequential %v",
				p.Size, p.HybridDelay.Mean, p.SeqDelay.Mean)
		}
		if p.HybridCost.Mean <= 0 || p.SeqCost.Mean <= 0 {
			t.Fatalf("size %d: nonpositive costs", p.Size)
		}
	}
}

func TestRunDelayDeterministic(t *testing.T) {
	a, err := RunDelay([]int{3}, 2, 8, core.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDelay([]int{3}, 2, 8, core.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	if a[0].HybridDelay.Mean != b[0].HybridDelay.Mean || a[0].SeqCost.Mean != b[0].SeqCost.Mean {
		t.Fatal("delay experiment not reproducible")
	}
}

func TestDelayTableRenders(t *testing.T) {
	points, err := RunDelay([]int{3}, 1, 2, core.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := DelayTable(points).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hybrid delay", "seq delay", "delay cut", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("delay table missing %q:\n%s", want, out)
		}
	}
}
