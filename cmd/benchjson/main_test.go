package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
		want Bench
	}{
		{
			line: "BenchmarkEngineScheduleRun-8  \t 1234\t 98765 ns/op\t 120 B/op\t 3 allocs/op",
			ok:   true,
			want: Bench{Name: "BenchmarkEngineScheduleRun", Iters: 1234, NsPerOp: 98765, BytesPerOp: 120, AllocsPerOp: 3},
		},
		{
			line: "BenchmarkPaperScaleSimulation/Libra-4   1  503556000 ns/op  97.00 SLA%  55.30 profit%",
			ok:   true,
			want: Bench{Name: "BenchmarkPaperScaleSimulation/Libra", Iters: 1, NsPerOp: 503556000,
				Extra: map[string]float64{"SLA%": 97, "profit%": 55.3}},
		},
		{line: "ok  \trepro\t12.3s", ok: false},
		{line: "PASS", ok: false},
		{line: "pkg: repro", ok: false},
		{line: "", ok: false},
		{line: "BenchmarkNoResult-8", ok: false},
		{line: "Benchmark 12 34 ns/op", ok: false},
	} {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseBenchLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Name != tc.want.Name || got.Iters != tc.want.Iters ||
			got.NsPerOp != tc.want.NsPerOp || got.BytesPerOp != tc.want.BytesPerOp ||
			got.AllocsPerOp != tc.want.AllocsPerOp {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
		for k, v := range tc.want.Extra {
			if got.Extra[k] != v {
				t.Errorf("parseBenchLine(%q) extra[%q] = %v, want %v", tc.line, k, got.Extra[k], v)
			}
		}
	}
}

func TestParseGoBenchMultiLine(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkA-8	10	100 ns/op	8 B/op	1 allocs/op
BenchmarkB-8	20	200 ns/op
PASS
ok	repro	1.2s
`
	got := ParseGoBench(out)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("ParseGoBench = %+v, want BenchmarkA and BenchmarkB", got)
	}
}

func capFixture(benches ...Bench) Capture {
	return Capture{Schema: schemaVersion, Go: "gotest", Benches: benches}
}

func writeCaptureFile(t *testing.T, path string, c Capture) {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDiffCountsRegressions(t *testing.T) {
	old := capFixture(
		Bench{Name: "sim/a", NsPerOp: 2e7, AllocsPerOp: 10},
		Bench{Name: "sim/b", NsPerOp: 2e7, AllocsPerOp: 10},
		Bench{Name: "sim/gone", NsPerOp: 1, AllocsPerOp: 1},
	)
	cur := capFixture(
		Bench{Name: "sim/a", NsPerOp: 1e7, AllocsPerOp: 0},  // improved
		Bench{Name: "sim/b", NsPerOp: 3e7, AllocsPerOp: 10}, // regressed 50%
		Bench{Name: "sim/new", NsPerOp: 1, AllocsPerOp: 1},
	)
	var buf bytes.Buffer
	n := writeDiff(&buf, "old.json", "new.json", old, cur, 0.10, 0.10)
	if n != 1 {
		t.Fatalf("writeDiff regressions = %d, want 1", n)
	}
	out := buf.String()
	for _, want := range []string{"REGRESSED", "sim/gone", "sim/new", "2 shared bench(es)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteDiffSplitThresholds pins the two-threshold contract the CI gate
// depends on: a loose ns/op bound tolerating runner noise while a tight
// allocs/op bound still catches allocation regressions, and vice versa.
func TestWriteDiffSplitThresholds(t *testing.T) {
	old := capFixture(
		Bench{Name: "sim/ns-noise", NsPerOp: 2e7, AllocsPerOp: 10},
		Bench{Name: "sim/alloc-leak", NsPerOp: 2e7, AllocsPerOp: 10},
	)
	cur := capFixture(
		Bench{Name: "sim/ns-noise", NsPerOp: 2.6e7, AllocsPerOp: 10}, // +30% ns, allocs flat
		Bench{Name: "sim/alloc-leak", NsPerOp: 2e7, AllocsPerOp: 11}, // +10% allocs, ns flat
	)
	var buf bytes.Buffer
	// Loose ns (40%), tight allocs (2%): only the alloc leak regresses.
	if n := writeDiff(&buf, "o", "n", old, cur, 0.40, 0.02); n != 1 {
		t.Fatalf("split thresholds flagged %d regressions, want 1 (alloc leak):\n%s", n, buf.String())
	}
	// Tight ns (10%), loose allocs (50%): only the ns jump regresses.
	buf.Reset()
	if n := writeDiff(&buf, "o", "n", old, cur, 0.10, 0.50); n != 1 {
		t.Fatalf("split thresholds flagged %d regressions, want 1 (ns jump):\n%s", n, buf.String())
	}
}

// TestWriteDiffSignificanceFloors pins the absolute-significance floors:
// relative swings on sub-millisecond single-shot timings and on near-zero
// allocs/op are measurement noise and must not trip the gate, while the
// same relative swings above the floors must.
func TestWriteDiffSignificanceFloors(t *testing.T) {
	old := capFixture(
		Bench{Name: "sim/micro", NsPerOp: 1.8e6, AllocsPerOp: 0},     // 1.8 ms single shot
		Bench{Name: "sim/pooled", NsPerOp: 14, AllocsPerOp: 4e-8},    // amortized pool growth
		Bench{Name: "suite/macro", NsPerOp: 300e6, AllocsPerOp: 1e6}, // 300 ms, 1 M allocs
	)
	cur := capFixture(
		Bench{Name: "sim/micro", NsPerOp: 4.8e6, AllocsPerOp: 0},    // +167% ns under the 10 ms floor
		Bench{Name: "sim/pooled", NsPerOp: 14, AllocsPerOp: 1.6e-7}, // +300% of ~nothing
		Bench{Name: "suite/macro", NsPerOp: 300e6, AllocsPerOp: 1e6},
	)
	var buf bytes.Buffer
	if n := writeDiff(&buf, "o", "n", old, cur, 0.40, 0.02); n != 0 {
		t.Fatalf("sub-floor noise flagged %d regressions, want 0:\n%s", n, buf.String())
	}
	// The same relative deltas above the floors are real regressions.
	cur2 := capFixture(
		Bench{Name: "sim/micro", NsPerOp: 4.8e6, AllocsPerOp: 0},
		Bench{Name: "sim/pooled", NsPerOp: 14, AllocsPerOp: 1.6e-7},
		Bench{Name: "suite/macro", NsPerOp: 700e6, AllocsPerOp: 1.04e6}, // +133% ns, +4% allocs
	)
	buf.Reset()
	if n := writeDiff(&buf, "o", "n", old, cur2, 0.40, 0.02); n != 1 {
		t.Fatalf("above-floor regression flagged %d, want 1:\n%s", n, buf.String())
	}
}

func TestDeltaPct(t *testing.T) {
	for _, tc := range []struct {
		old, new, want float64
	}{
		{100, 150, 0.5},
		{100, 50, -0.5},
		{0, 0, 0},
		{0, 5, 99.99},
	} {
		if got := deltaPct(tc.old, tc.new); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("deltaPct(%v, %v) = %v, want %v", tc.old, tc.new, got, tc.want)
		}
	}
}

func TestRunDiffModeAndGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeCaptureFile(t, oldPath, capFixture(Bench{Name: "sim/a", NsPerOp: 1e7, AllocsPerOp: 4}))
	writeCaptureFile(t, newPath, capFixture(Bench{Name: "sim/a", NsPerOp: 4e7, AllocsPerOp: 4}))

	var out, errw bytes.Buffer
	// Informational diff: regressions reported, no error.
	if err := run([]string{"-diff", oldPath, newPath}, &out, &errw); err != nil {
		t.Fatalf("informational diff errored: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("diff output missing REGRESSED:\n%s", out.String())
	}
	// Gated diff: the 4x regression must fail.
	if err := run([]string{"-diff", "-gate", oldPath, newPath}, &out, &errw); err == nil {
		t.Fatal("gated diff of a 4x regression succeeded, want error")
	}
	// Gated diff within threshold passes.
	if err := run([]string{"-diff", "-gate", "-threshold", "5.0", oldPath, newPath}, &out, &errw); err != nil {
		t.Fatalf("gated diff within threshold errored: %v", err)
	}
	// -alloc-threshold defaults to -threshold: a loose shared threshold
	// with an explicit tight alloc bound must still pass here (the
	// regression is in ns/op, which the loose bound covers).
	if err := run([]string{"-diff", "-gate", "-threshold", "5.0", "-alloc-threshold", "0.02", oldPath, newPath}, &out, &errw); err != nil {
		t.Fatalf("gated diff with tight alloc threshold errored on an allocs-flat capture: %v", err)
	}
	// A bench of the baseline missing from the new capture fails the gate
	// even when every shared bench is flat; the informational diff only
	// reports it.
	lostPath := filepath.Join(dir, "lost.json")
	writeCaptureFile(t, lostPath, capFixture(Bench{Name: "sim/b", NsPerOp: 1e7, AllocsPerOp: 4}))
	if err := run([]string{"-diff", "-gate", oldPath, lostPath}, &out, &errw); !errors.Is(err, errGate) {
		t.Fatalf("gated diff losing sim/a: err = %v, want the gate to trip", err)
	}
	if err := run([]string{"-diff", oldPath, lostPath}, &out, &errw); err != nil {
		t.Fatalf("informational diff losing sim/a errored: %v", err)
	}
}

func TestRunDiffRejectsBadInput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-diff", "only-one.json"}, &out, &errw); err == nil {
		t.Error("diff with one file succeeded, want error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	writeCaptureFile(t, good, capFixture())
	if err := run([]string{"-diff", bad, good}, &out, &errw); err == nil {
		t.Error("diff with wrong schema succeeded, want error")
	}
}

// TestCaptureRoundTrip pins the JSON schema: a capture survives
// marshal/unmarshal bit-for-bit on the fields the diff reads.
func TestCaptureRoundTrip(t *testing.T) {
	c := capFixture(Bench{
		Name: "sim/a", Iters: 7, NsPerOp: 123.5, BytesPerOp: 64, AllocsPerOp: 2,
		Extra: map[string]float64{"events/s": 1e6},
	})
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Capture
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != c.Schema || len(back.Benches) != 1 {
		t.Fatalf("round trip = %+v, want %+v", back, c)
	}
	got, want := back.Benches[0], c.Benches[0]
	if got.Name != want.Name || got.Iters != want.Iters || got.NsPerOp != want.NsPerOp ||
		got.BytesPerOp != want.BytesPerOp || got.AllocsPerOp != want.AllocsPerOp {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if got.Extra["events/s"] != 1e6 {
		t.Fatalf("extra lost in round trip: %+v", got)
	}
}
