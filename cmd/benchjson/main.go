// Command benchjson records the repository's `go test -bench` results as
// machine-comparable JSON, seeding the BENCH_<n>.json performance
// trajectory that ROADMAP's "as fast as the hardware allows" north star
// asks for. Every benchmark is a Benchmark function in a _test.go file;
// this command only captures, diffs and gates.
//
// Two modes:
//
//	benchjson [-bench .] [-out BENCH_X.json]
//	    runs `go test -run '^$' -bench <re> -benchmem` twice: over
//	    ./internal/... at Go's default benchtime, so the per-layer benches
//	    (event kernel, cluster accounting, streaming risk, suite runner)
//	    report steady-state numbers, and over the repository root at
//	    -benchtime 1x, so each bench_test.go table, figure and ablation
//	    runs once. It writes one JSON document with ns/op, allocs/op, B/op
//	    and the reported extras (events/s, jobs/s, sims/s) per bench. Run
//	    it from the repository root.
//
//	benchjson -diff OLD.json NEW.json [-threshold 0.10] [-alloc-threshold 0.10] [-gate]
//	    compares two captures bench by bench and prints the deltas.
//	    With -gate, exits non-zero when any shared bench regresses beyond
//	    -threshold on ns/op or -alloc-threshold on allocs/op, or when a
//	    bench of OLD is missing from NEW; without it the diff is
//	    informational. The split matters for CI: allocs/op is
//	    deterministic for a fixed workload, so the gate can hold it tight,
//	    while ns/op on shared runners needs a loose bound. Deltas must
//	    also clear absolute significance floors (10 ms/op for timing, half
//	    an alloc/op for allocations) so single-shot micro-bench jitter and
//	    amortized pool growth never flake the gate (see docs/performance.md
//	    for the enforced settings).
//
// The tool is stdlib-only and takes all timing from the go tool's
// benchmark output — no wall-clock read or global rand appears in this
// package (repolint enforces both).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Bench is one measured benchmark in a capture.
type Bench struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Capture is the top-level JSON document.
type Capture struct {
	Schema  string  `json:"schema"`
	Go      string  `json:"go"`
	Benches []Bench `json:"benches"`
}

const schemaVersion = "benchjson/1"

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// errGate is returned when -gate trips; main maps it to exit 1 like any
// other error, but with the regressions already printed.
var errGate = fmt.Errorf("regression gate tripped")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("out", "", "write the capture to this file (default stdout)")
		benchRe    = fs.String("bench", ".", "bench regexp passed to `go test -bench`")
		diff       = fs.Bool("diff", false, "compare two captures: benchjson -diff OLD.json NEW.json")
		threshold  = fs.Float64("threshold", 0.10, "ns/op regression threshold (fraction) for -diff")
		allocThres = fs.Float64("alloc-threshold", -1, "allocs/op regression threshold for -diff (-1: same as -threshold)")
		gate       = fs.Bool("gate", false, "with -diff, exit non-zero on regressions beyond the thresholds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff wants exactly two files, got %d", fs.NArg())
		}
		old, err := readCapture(fs.Arg(0))
		if err != nil {
			return err
		}
		cur, err := readCapture(fs.Arg(1))
		if err != nil {
			return err
		}
		if *allocThres < 0 {
			*allocThres = *threshold
		}
		regressed := writeDiff(stdout, fs.Arg(0), fs.Arg(1), old, cur, *threshold, *allocThres)
		missing := len(onlyIn(old, cur))
		if *gate && regressed+missing > 0 {
			return fmt.Errorf("%w: %d bench(es) beyond ns %.0f%% / allocs %.0f%%, %d missing from %s",
				errGate, regressed, *threshold*100, *allocThres*100, missing, fs.Arg(1))
		}
		return nil
	}

	benches, err := capture(*benchRe, stderr)
	if err != nil {
		return err
	}
	cap := Capture{Schema: schemaVersion, Go: runtime.Version(), Benches: benches}
	sort.Slice(cap.Benches, func(i, j int) bool { return cap.Benches[i].Name < cap.Benches[j].Name })

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cap)
}

func readCapture(path string) (Capture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Capture{}, err
	}
	var c Capture
	if err := json.Unmarshal(data, &c); err != nil {
		return Capture{}, fmt.Errorf("%s: %w", path, err)
	}
	if c.Schema != schemaVersion {
		return Capture{}, fmt.Errorf("%s: schema %q, want %q", path, c.Schema, schemaVersion)
	}
	return c, nil
}

// captureRuns are the `go test` package arguments of the two capture
// passes: the per-layer benches under internal/ at Go's default
// benchtime, and the paper-suite benches of the root bench_test.go at one
// iteration each.
var captureRuns = [][]string{
	{"./internal/..."},
	{"-benchtime", "1x", "."},
}

// capture runs both passes through the go tool and parses the standard
// benchmark output format.
func capture(benchRe string, stderr io.Writer) ([]Bench, error) {
	var benches []Bench
	for _, pkgArgs := range captureRuns {
		args := append([]string{"test", "-run", "^$", "-bench", benchRe, "-benchmem"}, pkgArgs...)
		fmt.Fprintf(stderr, "go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			stderr.Write(out)
			return nil, fmt.Errorf("go test -bench: %w", err)
		}
		benches = append(benches, ParseGoBench(string(out))...)
	}
	return benches, nil
}
