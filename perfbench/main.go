package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the metrics every untraced run prints, with units. Each
// workload maps them onto its own operation (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"latency_ms_p50", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer names the metrics every traced run prints. Shares are of the
// workload's own measured time; a layer the workload does not run has
// share 0.
var perLayer = []struct{ name, unit string }{
	{"bench.trace_overhead_share", "share"},
	{"cpu.idle_share", "share"},
	{"scheduler.submit_us", "us"},
	{"scheduler.submit_share", "share"},
	{"scheduler.submit_share.FCFS-BF", "share"},
	{"scheduler.submit_share.SJF-BF", "share"},
	{"scheduler.submit_share.EDF-BF", "share"},
	{"scheduler.submit_share.Libra", "share"},
	{"scheduler.submit_share.Libra-dollar", "share"},
	{"scheduler.accept_ratio", "ratio"},
	{"sim.events_per_job", "count"},
	{"sim.kernel_share", "share"},
	{"workload.generate_share", "share"},
	{"metrics.reduce_share", "share"},
	{"faults.killed_per_sim", "count"},
	{"risk.analysis_share", "share"},
	{"plot.render_share", "share"},
	{"obs.journal_share", "share"},
	{"experiment.write_share", "share"},
	{"client.overhead_share", "share"},
	{"control.self_share", "share"},
	{"control.forward_net_share", "share"},
	{"serve.handle_share", "share"},
	{"serve.decode_share", "share"},
	{"obs.journal_append_share", "share"},
	{"streamrisk.fold_share", "share"},
	{"serve.encode_share", "share"},
	{"streamrisk.snapshot_kb", "KB"},
	{"streamrisk.sse_deltas", "count"},
	{"streamrisk.sse_resyncs", "count"},
	{"streamrisk.sse_dropped", "count"},
	{"streamrisk.sse_delivered_ratio", "ratio"},
	{"streamrisk.sse_end_lag", "count"},
	{"serve.shed", "count"},
	{"serve.live_sessions_max", "count"},
	{"gen.late_share", "share"},
}

// capture is what one workload run produces.
type capture struct {
	Attempted int64
	Failed    int64
	// E2E holds the end-to-end values by name (units come from endToEnd).
	E2E map[string]float64
	// Layers holds the per-layer values by name (units from perLayer).
	Layers map[string]float64
	// Detail holds the named layer figures beyond the gated set (absolute
	// layer times, per-operation percentiles, per-policy breakdowns); they
	// are printed and written to the capture file, not gated.
	Detail map[string]float64
	Spans  []Span
}

func newCapture() *capture {
	return &capture{E2E: map[string]float64{}, Layers: map[string]float64{}, Detail: map[string]float64{}}
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	out      string
}

// workloads maps names to runners.
var workloads = map[string]func(o options) (*capture, error){
	"paper-suite":      runPaperSuite,
	"faulted-backfill": runFaultedBackfill,
	"fleet-admit":      runFleetAdmit,
	"fleet-watch":      runFleetWatch,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: paper-suite, faulted-backfill, fleet-admit, fleet-watch")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout root")
	flag.Parse()
	o.trace = trace == 1
	o.out = filepath.Join(o.root, ".bench_build", "captures")
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}

// run executes one workload and prints the result line.
func run(o options, stdout io.Writer) error {
	runner, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 || o.seed < 1 {
		return fmt.Errorf("-seconds and -seed must be positive")
	}
	prov := stamp(o)
	c, err := runner(o)
	if err != nil {
		return err
	}
	prov.HostRefMS[1] = hostRef()
	names, metrics := endToEnd, c.E2E
	if o.trace {
		names, metrics = perLayer, c.Layers
	}
	out := map[string]metric{}
	for _, m := range names {
		v, ok := metrics[m.name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	if err := writeCapture(o, prov, c, out); err != nil {
		return err
	}
	if o.trace {
		line, err := json.Marshal(map[string]any{"layers_detail": c.Detail})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, c.Attempted, c.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// provenance stamps a capture with where and what was measured.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// HostRefMS times a fixed pure-Go computation (hostRef) before and
	// after the workload. It shares no code with the repository, so a
	// change between captures of the same workload is the host's speed.
	HostRefMS [2]float64 `json:"host_ref_ms"`
}

func stamp(o options) provenance {
	return provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(o.root),
		SourceHash: sourceHash(o.root),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		HostRefMS:  [2]float64{hostRef(), 0},
	}
}

// hostRef is the minimum of three timings of a fixed computation: sorting
// the same 200 000 pseudo-random integers.
func hostRef() float64 {
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		v := make([]int, 200_000)
		x := uint64(88172645463325252)
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = int(x >> 1)
		}
		t := clock()
		sort.Ints(v)
		best = math.Min(best, ms(since(t)))
	}
	return best
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory when there is one; a
// plain source checkout reports "none" and relies on the source hash.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unresolved " + ref
	}
	return strings.TrimSpace(string(b))
}

// sourceHash digests every Go source and go.mod file of the checkout
// outside the build directory, in path order: two captures with the same
// hash measured the same code.
func sourceHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// maxRSSMB is the process's resident-set high-water mark in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeCapture writes the full capture (provenance, printed metrics,
// detail, and spans when traced) under the build directory.
func writeCapture(o options, prov provenance, c *capture, printed map[string]metric) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	base := fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, mode)
	b, err := json.MarshalIndent(struct {
		Provenance provenance         `json:"provenance"`
		Attempted  int64              `json:"attempted"`
		Failed     int64              `json:"failed"`
		Metrics    map[string]metric  `json:"metrics"`
		Detail     map[string]float64 `json:"detail,omitempty"`
	}{prov, c.Attempted, c.Failed, printed, c.Detail}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, base+".json"), b, 0o644); err != nil {
		return err
	}
	if o.trace {
		return writeSpans(filepath.Join(o.out, base+"-spans.json"), prov, c.Spans)
	}
	return nil
}

// clock is the benchmark's wall clock for measured intervals.
func clock() time.Time {
	return time.Now() //lint:allow wallclock — the benchmark measures real elapsed time by design
}

// since is the wall time elapsed since t.
func since(t time.Time) time.Duration {
	return time.Since(t) //lint:allow wallclock — the benchmark measures real elapsed time by design
}
