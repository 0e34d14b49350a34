package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseGoBench parses standard `go test -bench -benchmem` output into
// Bench entries. Lines that are not benchmark results (package headers,
// PASS/ok, reported metrics of failed runs) are skipped. The GOMAXPROCS
// suffix ("-8") is stripped so captures from differently sized machines
// stay comparable.
func ParseGoBench(out string) []Bench {
	var benches []Bench
	for _, line := range strings.Split(out, "\n") {
		b, ok := parseBenchLine(line)
		if ok {
			benches = append(benches, b)
		}
	}
	return benches
}

// parseBenchLine parses one "BenchmarkX-8  20  123 ns/op  4 B/op  1
// allocs/op  97.0 SLA%" line.
func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") ||
		len(fields[0]) == len("Benchmark") {
		return Bench{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iters: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	if !seen {
		return Bench{}, false
	}
	return b, true
}

// deltaPct returns the relative change from old to new as a fraction
// (+0.25 = 25% more). A zero old value with a non-zero new value reads as
// +Inf-like growth, capped for display; zero to zero is zero.
func deltaPct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 99.99
	}
	return (new - old) / old
}

// Significance floors for the regression gate. A relative delta only
// counts when it is also real in absolute terms: benches measured at
// -benchtime 1x take a single-shot timing, which for short benches swings
// by integer factors on scheduler quantum effects alone (observed between
// two captures of identical code: +163% on a 1.8 ms bench, +124% on a
// 6 µs one), and near-zero allocs/op (pool growth amortized over millions
// of ops) flaps between runs while meaning nothing. The floors keep the
// enforced gate quiet on both without loosening it where it matters — a
// macro suite run slowing down, or a real +1 alloc per op leak. Benches
// under the timing floor stay fully gated on allocs/op, which is
// deterministic and catches the regressions that survive code review.
const (
	nsGateFloor    = 1e7 // gate ns/op only for benches at ≥ 10 ms/op
	allocGateFloor = 0.5 // gate allocs/op only on an absolute increase > ½ alloc/op
)

// writeDiff prints the bench-by-bench comparison and returns the number of
// shared benches regressing beyond the thresholds: nsThreshold on ns/op
// (noisy under shared runners, so typically loose) and allocThreshold on
// allocs/op (deterministic for a fixed workload, so typically tight —
// this is what lets the CI gate enforce without flaking). Deltas under the
// significance floors above never count as regressions.
func writeDiff(w io.Writer, oldPath, newPath string, old, cur Capture, nsThreshold, allocThreshold float64) int {
	oldBy := make(map[string]Bench, len(old.Benches))
	for _, b := range old.Benches {
		oldBy[b.Name] = b
	}
	var names []string
	curBy := make(map[string]Bench, len(cur.Benches))
	for _, b := range cur.Benches {
		curBy[b.Name] = b
		if _, ok := oldBy[b.Name]; ok {
			names = append(names, b.Name)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "benchjson diff: %s -> %s (thresholds: ns %.0f%%, allocs %.0f%%)\n",
		oldPath, newPath, nsThreshold*100, allocThreshold*100)
	fmt.Fprintf(w, "%-52s %14s %14s %9s %9s\n", "bench", "ns/op", "allocs/op", "Δns", "Δallocs")
	regressed := 0
	for _, name := range names {
		o, n := oldBy[name], curBy[name]
		dns := deltaPct(o.NsPerOp, n.NsPerOp)
		dal := deltaPct(o.AllocsPerOp, n.AllocsPerOp)
		nsHit := dns > nsThreshold && o.NsPerOp >= nsGateFloor
		allocHit := dal > allocThreshold && n.AllocsPerOp-o.AllocsPerOp > allocGateFloor
		mark := ""
		if nsHit || allocHit {
			mark = "  REGRESSED"
			regressed++
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.1f %8.1f%% %8.1f%%%s\n",
			name, n.NsPerOp, n.AllocsPerOp, dns*100, dal*100, mark)
	}
	onlyOld, onlyNew := onlyIn(old, cur), onlyIn(cur, old)
	if len(onlyOld) > 0 {
		fmt.Fprintf(w, "only in %s: %s\n", oldPath, strings.Join(onlyOld, ", "))
	}
	if len(onlyNew) > 0 {
		fmt.Fprintf(w, "only in %s: %s\n", newPath, strings.Join(onlyNew, ", "))
	}
	fmt.Fprintf(w, "%d shared bench(es), %d regressed\n", len(names), regressed)
	return regressed
}

// onlyIn returns the sorted names of the benches in a that b lacks.
func onlyIn(a, b Capture) []string {
	have := make(map[string]bool, len(b.Benches))
	for _, x := range b.Benches {
		have[x.Name] = true
	}
	var names []string
	for _, x := range a.Benches {
		if !have[x.Name] {
			names = append(names, x.Name)
		}
	}
	sort.Strings(names)
	return names
}
