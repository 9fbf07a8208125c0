package sfcgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

func TestGenerateStructureSize5(t *testing.T) {
	s := MustGenerate(Default(10), rand.New(rand.NewSource(1)))
	if s.Size() != 5 {
		t.Fatalf("Size = %d, want 5", s.Size())
	}
	if s.Omega() != 2 || s.Layers[0].Width() != 3 || s.Layers[1].Width() != 2 {
		t.Fatalf("structure = %v, want [3][2]", s)
	}
}

func TestGenerateStructurePerSize(t *testing.T) {
	widths := map[int][]int{
		1: {1},
		2: {2},
		3: {3},
		4: {3, 1},
		6: {3, 3},
		7: {3, 3, 1},
		9: {3, 3, 3},
	}
	for size, want := range widths {
		cfg := Config{Size: size, LayerWidth: 3, VNFKinds: 12}
		s := MustGenerate(cfg, rand.New(rand.NewSource(2)))
		if s.Omega() != len(want) {
			t.Fatalf("size %d: %d layers, want %d", size, s.Omega(), len(want))
		}
		for i, w := range want {
			if s.Layers[i].Width() != w {
				t.Fatalf("size %d: layer %d width %d, want %d", size, i, s.Layers[i].Width(), w)
			}
		}
	}
}

func TestGenerateDistinctCategories(t *testing.T) {
	cfg := Config{Size: 9, LayerWidth: 3, VNFKinds: 9}
	s := MustGenerate(cfg, rand.New(rand.NewSource(3)))
	seen := map[network.VNFID]bool{}
	for _, f := range s.Sequence() {
		if seen[f] {
			t.Fatalf("category %d repeated", f)
		}
		seen[f] = true
	}
}

func TestGenerateValidAgainstCatalog(t *testing.T) {
	f := func(seed int64, szRaw, kindsRaw uint8) bool {
		size := int(szRaw%9) + 1
		kinds := size + int(kindsRaw%10)
		cfg := Config{Size: size, LayerWidth: 3, VNFKinds: kinds}
		s := MustGenerate(cfg, rand.New(rand.NewSource(seed)))
		return s.Validate(network.Catalog{N: kinds}) == nil && s.Size() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFreshVNFSetsPerTrial(t *testing.T) {
	// Two draws from one stream should (overwhelmingly) differ in their
	// category sets while sharing the structure.
	rng := rand.New(rand.NewSource(4))
	cfg := Config{Size: 5, LayerWidth: 3, VNFKinds: 40}
	a := MustGenerate(cfg, rng)
	b := MustGenerate(cfg, rng)
	if a.Omega() != b.Omega() {
		t.Fatal("structure changed between draws")
	}
	same := true
	as, bs := a.Sequence(), b.Sequence()
	for i := range as {
		if as[i] != bs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two draws produced identical category sequences (40 kinds, size 5)")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Config{
		{Size: 0, LayerWidth: 3, VNFKinds: 5},
		{Size: 3, LayerWidth: 0, VNFKinds: 5},
		{Size: 6, LayerWidth: 3, VNFKinds: 5}, // not enough kinds
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d validated: %+v", i, cfg)
		}
		if _, err := Generate(cfg, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("case %d generated: %+v", i, cfg)
		}
		if _, _, _, err := Flow(cfg, 8, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("case %d drew a flow: %+v", i, cfg)
		}
	}
	if _, _, _, err := Flow(Default(10), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("Flow drew endpoints from 0 nodes")
	}
}

// TestFlowFingerprint pins Flow's draw order (the SFC, then src, then dst)
// and what it leaves of the stream, over widths 1–3 at 8 and 500 nodes. The
// seeded corpora drawn through Flow that have no golden of their own, such
// as the property tests of core, exact and the server, rest on it. The
// constant is the hash of the inline draw that Flow replaced.
func TestFlowFingerprint(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 8; seed++ {
		for width := 1; width <= 3; width++ {
			for _, nodes := range []int{8, 500} {
				rng := rand.New(rand.NewSource(seed))
				s, src, dst := MustFlow(Config{Size: 5, LayerWidth: width, VNFKinds: 10}, nodes, rng)
				fmt.Fprintf(h, "%s %d %d %d\n", sfc.Format(s), src, dst, rng.Int63())
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x544fbdeb303a8890); got != want {
		t.Fatalf("flow fingerprint %#x, want %#x: Flow draws in another order, and every seeded corpus drawn through it moved", got, want)
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate should panic")
		}
	}()
	MustGenerate(Config{}, rand.New(rand.NewSource(1)))
}
