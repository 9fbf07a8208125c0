package sim

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{Title: "demo", Header: []string{"x", "alpha", "b"}}
	t.AddRow("1", "10.5", "x")
	t.AddRow("200", "3")
	return t
}

func TestRenderAlignment(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "x    alpha") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Fatalf("separator = %q", lines[2])
	}
	// Padded short row must have the same number of columns; cells aligned.
	if !strings.Contains(lines[4], "200  3") {
		t.Fatalf("row = %q", lines[4])
	}
}

func TestRenderNoTitle(t *testing.T) {
	tab := &Table{Header: []string{"a"}}
	tab.AddRow("1")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(b.String(), "\n") {
		t.Fatal("empty title printed a blank line")
	}
}

func TestRenderCSV(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "x,alpha,b\n1,10.5,x\n200,3,\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestNum(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5:       "5",
		500:     "500",
		1234.56: "1235",
		42.345:  "42.3",
		3.14159: "3.142",
		0.1:     "0.100",
	}
	for in, want := range cases {
		if got := num(in); got != want {
			t.Fatalf("num(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(0.305); got != "30.5%" {
		t.Fatalf("pct = %q", got)
	}
}
