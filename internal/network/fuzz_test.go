package network

import (
	"math/rand"
	"slices"
	"testing"

	"dagsfc/internal/graph"
)

// FuzzLedgerOrder is the exact ledger's property: reserve amounts on the
// grid, release any subset of them in any order, apply and restore degrade
// and link-down faults between them, and the ledger's rows are bit for bit
// those of a fresh ledger that holds only the reservations still standing
// and the faults still active — with nothing standing, the seed's. The input
// is five-byte ops: a kind, an operand and a 24-bit count of grains. Each of
// the 1000 seeds draws 40 amounts of (1–9) × U(0.1, 1.1) on one
// capacity-1000 edge and releases them in shuffled order, with a degrade
// held across the middle of the releases.
func FuzzLedgerOrder(f *testing.F) {
	const reserve, release, fault = 0, 1, 2
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var in []byte
		op := func(kind byte, operand int, grains uint32) {
			in = append(in, kind, byte(operand), byte(grains>>16), byte(grains>>8), byte(grains))
		}
		for range 40 {
			op(reserve, 0, uint32(graph.ToGrid(float64(1+rng.Intn(9))*(0.1+rng.Float64()))/graph.Grain))
		}
		for i, k := range rng.Perm(40) {
			switch i {
			case 10:
				op(fault, 0, 1+uint32(rng.Intn(1<<23)))
			case 30:
				op(fault, 1, 0)
			}
			op(release, k, 0)
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g := graph.New(3)
		g.MustAddEdge(0, 1, 1, 1000)
		g.MustAddEdge(1, 2, 1, 1000)
		g.MustAddEdge(0, 2, 1, graph.Grain)
		net := New(g, Catalog{N: 1})
		type reservation struct {
			e      graph.EdgeID
			amount float64
			gone   bool
		}
		live := NewLedger(net)
		var made []reservation
		var faults []Fault
		for ; len(in) >= 5; in = in[5:] {
			operand, grains := int(in[1]), uint32(in[2])<<16|uint32(in[3])<<8|uint32(in[4])
			switch in[0] % 3 {
			case reserve: // on edge operand, of the grains
				r := reservation{e: graph.EdgeID(operand % 3), amount: float64(grains) * graph.Grain}
				if live.ReserveEdge(r.e, r.amount) == nil {
					made = append(made, r)
				}
			case release: // reservation number operand, if it still stands
				if operand < len(made) && !made[operand].gone {
					must(t, live.ReleaseEdge(made[operand].e, made[operand].amount))
					made[operand].gone = true
				}
			case fault: // with an odd operand, a restore; else a degrade of grains/2²⁴ (a link-down at 0) of edge operand
				if operand%2 == 1 && len(faults) > 0 {
					i := operand / 2 % len(faults)
					must(t, live.RestoreFault(faults[i]))
					faults = slices.Delete(faults, i, i+1)
					continue
				}
				flt := Fault{Kind: FaultLinkDown, Link: graph.EdgeID(operand % 3)}
				if grains > 0 {
					flt.Kind, flt.Fraction = FaultLinkDegrade, float64(grains)*0x1p-24
				}
				must(t, live.ApplyFault(flt))
				faults = append(faults, flt)
			}
		}
		standing := map[slot]float64{}
		for _, r := range made {
			if !r.gone {
				standing[slot{edge: r.e}] += r.amount
			}
		}
		viewsBitEqual(t, live, rebuilt(t, net, standing, faults), "the ledger after its history vs a fresh one holding what stands")
	})
}
