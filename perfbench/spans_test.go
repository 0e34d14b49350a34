package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfTimes checks the self-time computation on a synthetic tree:
//
//	root [0,100)
//	├── a [10,40)
//	│   └── c [15,25)
//	└── b folded: 3 intervals, 20 in total
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "c", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 0, End: 100, Count: 3, Total: 20},
		{ID: 5, Name: "a", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root": {N: 1, Total: 100, Self: 50},
		"a":    {N: 2, Total: 40, Self: 30},
		"c":    {N: 1, Total: 10, Self: 10},
		"b":    {N: 3, Total: 20, Self: 20},
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	if us := got["a"].meanUS(); us != 0.02 {
		t.Errorf("a mean = %vµs, want 0.02", us)
	}
}

func TestSpanDumpIsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	in := []Span{{ID: 2, Parent: 1, Req: 7, Name: "x", Start: 5, End: 9}, {ID: 1, Name: "r", Start: 0, End: 10}}
	if err := writeSpans(path, provenance{Workload: "w", Seed: 3}, in); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Provenance provenance `json:"provenance"`
		Spans      []Span     `json:"spans"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Provenance.Seed != 3 || len(dump.Spans) != 2 || dump.Spans[0].ID != 1 || dump.Spans[1].Req != 7 {
		t.Fatalf("dump %+v", dump)
	}
}

func TestGoroutineID(t *testing.T) {
	a := goid()
	if a == 0 || goid() != a {
		t.Fatalf("goid %d unstable or zero", a)
	}
	ch := make(chan uint64)
	go func() { ch <- goid() }()
	if b := <-ch; b == a || b == 0 {
		t.Fatalf("other goroutine id %d, this one %d", b, a)
	}
}
