package sfc_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

func TestParse(t *testing.T) {
	layers := func(ls ...[]network.VNFID) sfc.DAGSFC {
		s := sfc.DAGSFC{}
		for _, l := range ls {
			s.Layers = append(s.Layers, sfc.Layer{VNFs: l})
		}
		return s
	}
	for _, c := range []struct {
		in   string
		want sfc.DAGSFC
	}{
		{"", sfc.DAGSFC{}},
		{" \t\n ", sfc.DAGSFC{}},
		{"7", layers([]network.VNFID{7})},
		{"+1", layers([]network.VNFID{1})},
		{"007", layers([]network.VNFID{7})},
		{"1;2,3,4;5", layers([]network.VNFID{1}, []network.VNFID{2, 3, 4}, []network.VNFID{5})},
		{" 1 ;\t2 , 3\n; 4 ", layers([]network.VNFID{1}, []network.VNFID{2, 3}, []network.VNFID{4})},
		{"1,2,3,4,5,6,7,8,9,10", layers([]network.VNFID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})},
		{"3;3;3", layers([]network.VNFID{3}, []network.VNFID{3}, []network.VNFID{3})},
		{"2,2", layers([]network.VNFID{2, 2})}, // a duplicate parses; Validate refuses it
	} {
		got, err := sfc.Parse(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, c := range []struct{ in, err string }{
		{";", "sfc: layer 1: empty VNF entry"},
		{"1;", "sfc: layer 2: empty VNF entry"},
		{"1;;2", "sfc: layer 2: empty VNF entry"},
		{"1,;2", "sfc: layer 1: empty VNF entry"},
		{"1;2,,3", "sfc: layer 2: empty VNF entry"},
		{"a", `sfc: layer 1: "a" is not a VNF id`},
		{"1;2 3", `sfc: layer 2: "2 3" is not a VNF id`},
		{"1; x ,2", `sfc: layer 2: "x" is not a VNF id`},
		{"1.5", `sfc: layer 1: "1.5" is not a VNF id`},
		{"99999999999999999999", `sfc: layer 1: "99999999999999999999" is not a VNF id`},
		{"0", "sfc: layer 1: VNF id 0 must be >= 1"},
		{"1;-3", "sfc: layer 2: VNF id -3 must be >= 1"},
		{"1,2;3;0,a", "sfc: layer 3: VNF id 0 must be >= 1"},
	} {
		got, err := sfc.Parse(c.in)
		if err == nil || err.Error() != c.err {
			t.Errorf("Parse(%q) = %v, %v; want error %q", c.in, got, err, c.err)
		}
		if got.Layers != nil {
			t.Errorf("Parse(%q) failed but returned layers %v", c.in, got)
		}
	}
}

// TestParseLayersAreIndependentWindows: the layers share one slice of VNFs,
// so each must be capped at its own end — appending to one may not write
// into the next.
func TestParseLayersAreIndependentWindows(t *testing.T) {
	const text = "1;2,3;4,5,6;7"
	s, err := sfc.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for li := range s.Layers {
		if l := s.Layers[li].VNFs; cap(l) != len(l) {
			t.Fatalf("layer %d: cap %d beyond len %d reaches into the next layer", li+1, cap(l), len(l))
		}
		_ = append(s.Layers[li].VNFs, 77)
	}
	if got := sfc.Format(s); got != text {
		t.Fatalf("appending to a layer changed a neighbour: %q, was %q", got, text)
	}
}

// An sfc string is parsed once per admission: the VNFs and the layers.
func TestParseAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sfc.Parse(" 1 ; 2,3,4 ; 5,6 ; 7 "); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Parse: %v allocs, want at most 2", n)
	}
}

// FuzzParse checks that Parse never panics, that whatever it accepts reads
// back the same from its own Format, and that every DAG-SFC the paper's
// generator draws (seeded by the second argument) survives Format then
// Parse unchanged.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"", "1", "1;2,3;4", "1,2,3", " 7 ; 8 ", "+1", "0", "a;b", "1;;2", "1,", "9999999999"} {
		f.Add(seed, int64(len(seed)))
	}
	f.Fuzz(func(t *testing.T, input string, seed int64) {
		if s, err := sfc.Parse(input); err == nil {
			back, err := sfc.Parse(sfc.Format(s))
			if err != nil || !reflect.DeepEqual(back, s) {
				t.Fatalf("Parse(%q) = %v, but its Format %q reads back as %v, %v", input, s, sfc.Format(s), back, err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(12)
		d := sfcgen.MustGenerate(sfcgen.Config{Size: size, LayerWidth: 1 + rng.Intn(4), VNFKinds: size + rng.Intn(100)}, rng)
		if back, err := sfc.Parse(sfc.Format(d)); err != nil || !reflect.DeepEqual(back, d) {
			t.Fatalf("generated %v, formatted %q, parsed back as %v, %v", d, sfc.Format(d), back, err)
		}
	})
}
