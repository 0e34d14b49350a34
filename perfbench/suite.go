package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/qos"
	"repro/internal/risk"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// suiteSpec is one riskbench-pipeline workload.
type suiteSpec struct {
	name     string
	model    economy.Model
	setB     bool
	faults   faults.Intensity
	reps     int
	policies []string // nil: the model's five Table V policies
	// digest is the SHA-256 of every cell report for seed 1, recorded from
	// the seed commit; any change to a report's bits changes it.
	digest string
}

// paperSuite is the paper's headline run: commodity model, Set A, the
// full Table VI grid under the five commodity policies, 5000-job
// calibrated trace on 128 nodes, no faults, one replication.
var paperSuite = suiteSpec{
	name:   "paper-suite",
	model:  economy.Commodity,
	reps:   1,
	digest: "da4e1bdd1f8b57f587223c05856d925eeb8870681a69c68443f620c351c6a18c",
}

// faultedBackfill is the bid model, Set B, high fault intensity, the two
// space-shared backfillers, four replications: the Libra kernel is not run
// at all.
var faultedBackfill = suiteSpec{
	name:     "faulted-backfill",
	model:    economy.BidBased,
	setB:     true,
	faults:   faults.High,
	reps:     4,
	policies: []string{"FCFS-BF", "EDF-BF"},
	digest:   "f7aa298edeceac897b5aaacedeb2e231b8a4c5b7b73569fa5d2014303c94b038",
}

func runPaperSuite(o options) (*capture, error)      { return runSuite(o, paperSuite) }
func runFaultedBackfill(o options) (*capture, error) { return runSuite(o, faultedBackfill) }

// config is the suite configuration for a seed: the trace draws at seed,
// QoS at seed+1, failures at seed (seed 1 is riskbench's default).
func (s suiteSpec) config(seed int64) experiment.SuiteConfig {
	cfg := experiment.DefaultSuiteConfig(s.model, s.setB)
	cfg.TraceSeed, cfg.QoSSeed = seed, seed+1
	cfg.FaultIntensity, cfg.FaultSeed = s.faults, seed
	cfg.Replications = s.reps
	cfg.Workers = runtime.NumCPU()
	cfg.PolicyFilter = s.policies
	return cfg
}

// specs returns the suite's policies in Table V order.
func (s suiteSpec) specs() []scheduler.Spec {
	all := scheduler.ForModel(s.model)
	if s.policies == nil {
		return all
	}
	var out []scheduler.Spec
	for _, sp := range all {
		for _, name := range s.policies {
			if sp.Name == name {
				out = append(out, sp)
			}
		}
	}
	return out
}

// params returns the cell parameters for one grid point.
func params(cfg experiment.SuiteConfig, sc experiment.Scenario, value float64) experiment.Params {
	inacc := 0.0
	if cfg.SetB {
		inacc = 100
	}
	p := experiment.DefaultParams(inacc)
	sc.Apply(&p, value)
	return p
}

// metricPolicy spells a policy name for metric keys.
func metricPolicy(name string) string { return strings.ReplaceAll(name, "+$", "-dollar") }

// suiteSetup synthesizes the suite's inputs the way a cell does (trace per
// replication seed, arrival scaling, QoS draws) and prepares the output
// directory.
func suiteSetup(cfg experiment.SuiteConfig, dir string) error {
	synth := workload.DefaultSynthConfig()
	synth.Jobs = cfg.Jobs
	for r := 0; r < cfg.Replications; r++ {
		off := int64(experiment.ReplicationSeedStride * r)
		jobs, err := workload.Generate(synth, cfg.TraceSeed+off)
		if err != nil {
			return err
		}
		p := experiment.DefaultParams(0)
		workload.ScaleArrivals(jobs, p.ArrivalFactor)
		if err := qos.Synthesize(jobs, p.QoSConfig(cfg.QoSSeed+off)); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// pipelineRun is one timed pass of the riskbench pipeline.
type pipelineRun struct {
	res                           *experiment.Results
	wall, runWall, runCPU, cpu    time.Duration
	analysis, render, write, jrnl time.Duration
	cells                         []obs.Record
	cellWalls                     []float64 // CellStart→CellDone, ms
	resultsPath                   string
	start, runStart               time.Time
}

// cellTimer is a SuiteConfig.Observer that records each cell's journal
// record and its CellStart→CellDone wall time. Cell events fire
// concurrently from the worker pool.
type cellTimer struct {
	mu      sync.Mutex
	started map[string]time.Time
	walls   []float64
	records []obs.Record
}

func (c *cellTimer) SuiteStart(obs.Suite)  {}
func (c *cellTimer) SuiteDone(obs.Summary) {}

func (c *cellTimer) CellStart(cell obs.Cell) {
	t := clock()
	c.mu.Lock()
	c.started[cell.Key] = t
	c.mu.Unlock()
}

func (c *cellTimer) CellDone(r obs.Record) {
	t := clock()
	c.mu.Lock()
	c.walls = append(c.walls, ms(t.Sub(c.started[r.Cell.Key])))
	c.records = append(c.records, r)
	c.mu.Unlock()
}

// timedJournal forwards to the run journal and times each append.
type timedJournal struct {
	*obs.Journal
	spent time.Duration
}

func (j *timedJournal) CellDone(r obs.Record) {
	t := clock()
	j.Journal.CellDone(r)
	j.spent += since(t) // CellDone runs on the suite's single reduce goroutine
}

// pipeline runs the riskbench pipeline once: the suite with its journal,
// the risk analysis, every figure panel in every format, and results.json.
func pipeline(cfg experiment.SuiteConfig, dir string) (*pipelineRun, error) {
	pr := &pipelineRun{resultsPath: filepath.Join(dir, "results.json")}
	start, cpu0 := clock(), cpuTime()
	journal, err := obs.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	tj := &timedJournal{Journal: journal}
	timer := &cellTimer{started: map[string]time.Time{}}
	cfg.Observer = obs.Multi(tj, timer)
	runStart, runCPU := clock(), cpuTime()
	pr.start, pr.runStart = start, runStart
	res, err := experiment.Run(cfg)
	if err == nil {
		pr.runWall, pr.runCPU = since(runStart), cpuTime()-runCPU
		err = emitPanels(res, cfg, dir, pr)
	}
	if err != nil {
		journal.Close() // the run already failed; its error is the one to report
		return nil, err
	}
	t := clock()
	if err := journal.Err(); err != nil {
		return nil, fmt.Errorf("writing journal: %w", err)
	}
	if err := journal.Close(); err != nil {
		return nil, err
	}
	pr.jrnl = tj.spent + since(t)
	pr.res, pr.cells, pr.cellWalls = res, timer.records, timer.walls
	pr.wall, pr.cpu = since(start), cpuTime()-cpu0
	return pr, nil
}

// emitPanels writes what riskbench writes for one suite: the separate,
// integrated-three and integrated-four panels (gnuplot data and script,
// CSV, SVG, ASCII, summary), the rankings, and results.json, timing the
// analysis, rendering and writing separately.
func emitPanels(res *experiment.Results, cfg experiment.SuiteConfig, dir string, pr *pipelineRun) error {
	analyze := func(f func() ([]risk.Series, error)) ([]risk.Series, error) {
		t := clock()
		s, err := f()
		pr.analysis += since(t)
		return s, err
	}
	panel := func(name, title string, series []risk.Series) error {
		t := clock()
		pc := plot.Config{Title: title, TrendLines: true}
		files := map[string]string{
			"plot.dat": plot.GnuplotData(series),
			"plot.gp":  plot.GnuplotScript(series, "plot.dat", pc),
			"plot.csv": plot.CSV(series),
			"plot.svg": plot.SVG(series, pc),
			"plot.txt": plot.ASCII(series, pc),
		}
		summary, err := plot.SummaryTable(series)
		if err != nil {
			return err
		}
		files["summary.txt"] = summary
		pr.render += since(t)
		return writeFiles(filepath.Join(dir, name), files, &pr.write)
	}
	for _, obj := range risk.AllObjectives {
		series, err := analyze(func() ([]risk.Series, error) { return res.SeparateSeries(obj) })
		if err != nil {
			return err
		}
		if err := panel("separate-"+obj.String(), "separate — "+obj.String(), series); err != nil {
			return err
		}
	}
	for i, combo := range experiment.ObjectiveTriples() {
		series, err := analyze(func() ([]risk.Series, error) { return res.IntegratedSeries(combo) })
		if err != nil {
			return err
		}
		if err := panel(fmt.Sprintf("integrated3-%d", i), "integrated", series); err != nil {
			return err
		}
	}
	series, err := analyze(func() ([]risk.Series, error) { return res.IntegratedSeries(risk.AllObjectives) })
	if err != nil {
		return err
	}
	if err := panel("integrated4", "integrated — all four objectives", series); err != nil {
		return err
	}
	t := clock()
	perf, err := risk.RankByPerformance(series)
	if err != nil {
		return err
	}
	vol, err := risk.RankByVolatility(series)
	if err != nil {
		return err
	}
	ranking := strings.Join(risk.RankingTable(perf, false), "\n") + "\n" + strings.Join(risk.RankingTable(vol, true), "\n") + "\n"
	pr.analysis += since(t)
	if err := writeFiles(filepath.Join(dir, "integrated4"), map[string]string{"ranking.txt": ranking}, &pr.write); err != nil {
		return err
	}
	t = clock()
	f, err := os.Create(pr.resultsPath)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	pr.write += since(t)
	return nil
}

// writeFiles writes a panel's files in name order, adding the time spent
// to *spent.
func writeFiles(dir string, files map[string]string, spent *time.Duration) error {
	t := clock()
	defer func() { *spent += since(t) }()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(files[name]), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runSuite measures one suite workload: set up, run the pipeline until the
// measuring time is spent (at least once), check every output, and in a
// traced run replay a seeded sample of cells with Policy.Submit timed.
func runSuite(o options, s suiteSpec) (*capture, error) {
	cfg := s.config(o.seed)
	dir := filepath.Join(o.root, ".bench_build", "work", s.name)
	setup, err := timeSetup(9, func() error { return suiteSetup(cfg, dir) })
	if err != nil {
		return nil, err
	}
	c := newCapture()
	c.E2E["setup_s"] = setup.Seconds()

	var runs []*pipelineRun
	deadline := time.Duration(o.seconds) * time.Second
	measured := time.Duration(0)
	for len(runs) == 0 || measured < deadline {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		pr, err := pipeline(cfg, dir)
		if err != nil {
			return nil, err
		}
		measured += pr.wall
		if err := checkSuiteRun(s, cfg, pr, o.seed); err != nil {
			return nil, err
		}
		runs = append(runs, pr)
	}
	sims := int64(0)
	var wall, cpu time.Duration
	var lat []float64
	for _, pr := range runs {
		sims += int64(pr.res.Cells() * cfg.Replications)
		wall += pr.wall
		cpu += pr.cpu
		for _, r := range pr.cells {
			lat = append(lat, 1e3*r.WallSeconds/float64(r.Replications))
		}
	}
	c.Attempted = sims
	c.E2E["ops_per_s"] = float64(sims) / wall.Seconds()
	c.E2E["cpu_ms_per_op"] = ms(cpu) / float64(sims)
	q, err := summarize(lat)
	if err != nil {
		return nil, err
	}
	if err := requireTail("simulation latency", q.N, 90, 10); err != nil {
		return nil, err
	}
	c.E2E["latency_ms_p50"] = q.P50
	c.E2E["max_rss_mb"] = maxRSSMB()
	c.Detail["latency_ms_p90"] = q.P90

	// Recompute a seeded sample of cells (one per policy) with the timing
	// wrapper in place: bit-identical reports prove both the suite and the
	// wrapper.
	first := runs[0]
	sample := sampleCells(cfg, s.specs(), o.seed, 1)
	if o.trace {
		sample = sampleCells(cfg, s.specs(), o.seed, len(experiment.Scenarios()))
	}
	stats, err := replay(cfg, first.res, sample, o.trace)
	if err != nil {
		return nil, err
	}
	if o.trace {
		suiteLayers(c, cfg, first, stats)
	}
	return c, nil
}

// timeSetup runs setup k times and returns the median duration.
func timeSetup(k int, setup func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < k; i++ {
		t := clock()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, float64(since(t)))
	}
	return time.Duration(median(ds)), nil
}

// checkSuiteRun applies the suite oracles to one pipeline pass.
func checkSuiteRun(s suiteSpec, cfg experiment.SuiteConfig, pr *pipelineRun, seed int64) error {
	if err := checkComplete(pr.res, cfg.Jobs); err != nil {
		return err
	}
	if want := len(experiment.Scenarios()) * 6 * len(s.specs()); pr.res.Cells() != want || len(pr.cells) != want {
		return fmt.Errorf("%d cells computed, %d journaled, want %d", pr.res.Cells(), len(pr.cells), want)
	}
	f, err := os.Open(pr.resultsPath)
	if err != nil {
		return err
	}
	back, err := experiment.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := sameResults("results.json round trip", pr.res, back); err != nil {
		return err
	}
	if seed == 1 {
		if got := digestResults(pr.res); got != s.digest {
			return fmt.Errorf("report digest for seed 1 is %s, recorded %s", got, s.digest)
		}
	}
	return nil
}

// cellRef names one grid cell of a suite.
type cellRef struct {
	sc   experiment.Scenario
	si   int
	vi   int
	spec scheduler.Spec
}

// sampleCells draws perPolicy distinct scenarios per policy (one seeded
// value index each) from the grid.
func sampleCells(cfg experiment.SuiteConfig, specs []scheduler.Spec, seed int64, perPolicy int) []cellRef {
	rng := rand.New(rand.NewSource(seed))
	scs := experiment.Scenarios()
	var out []cellRef
	for _, sp := range specs {
		order := rng.Perm(len(scs))
		for _, si := range order[:perPolicy] {
			out = append(out, cellRef{sc: scs[si], si: si, vi: rng.Intn(len(scs[si].Values)), spec: sp})
		}
	}
	return out
}

// cellStats is one replayed cell's measurement.
type cellStats struct {
	ref              cellRef
	bare, wrapped    time.Duration
	submit           time.Duration
	submits          int64
	events           uint64
	accepted, killed int
	jobs             int
	generate, reduce time.Duration
	start            time.Time // start of the wrapped run
}

// replay recomputes cells with experiment.RunCell, comparing each report
// bit for bit with the suite's and checking every job settles once. When
// timed, each cell also runs bare first, so the wrapper's overhead is the
// difference, and the trace generation and reduce are timed on their own.
func replay(cfg experiment.SuiteConfig, res *experiment.Results, cells []cellRef, timed bool) ([]cellStats, error) {
	out := make([]cellStats, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = replayCell(cfg, res, cells[i], timed)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayRun is one replication's captured context and timing handle.
type replayRun struct {
	ctx *scheduler.Context
	tp  *timedPolicy
}

func replayCell(cfg experiment.SuiteConfig, res *experiment.Results, ref cellRef, timed bool) (cellStats, error) {
	cfg.Workers, cfg.Observer = 1, nil
	st := cellStats{ref: ref}
	sc := res.Scenarios[ref.si]
	where := "recomputed " + cellName(sc, ref.vi, ref.spec.Name)
	want := sc.Reports[ref.vi][ref.spec.Name]
	p := params(cfg, ref.sc, ref.sc.Values[ref.vi])
	if timed {
		t := clock()
		rep, err := experiment.RunCell(cfg, p, ref.spec)
		st.bare = since(t)
		if err != nil {
			return st, err
		}
		if err := sameBits(where+" (bare)", want, rep); err != nil {
			return st, err
		}
	}
	var mu sync.Mutex
	var runs []replayRun
	spec := ref.spec
	spec.New = timedFactory(ref.spec.New, func(ctx *scheduler.Context, tp *timedPolicy) {
		mu.Lock()
		runs = append(runs, replayRun{ctx, tp})
		mu.Unlock()
	})
	t := clock()
	st.start = t
	rep, err := experiment.RunCell(cfg, p, spec)
	st.wrapped = since(t)
	if err != nil {
		return st, fmt.Errorf("%s: %w", where, err)
	}
	if err := sameBits(where, want, rep); err != nil {
		return st, err
	}
	var reports []metrics.Report
	for _, r := range runs {
		if r.tp == nil {
			return st, fmt.Errorf("%s: policy %s has an interface set the timing wrapper does not forward", where, spec.Name)
		}
		outcomes := r.ctx.Collector.Outcomes()
		if err := settledOnce(where, outcomes, cfg.Jobs); err != nil {
			return st, err
		}
		for _, o := range outcomes {
			if o.Accepted {
				st.accepted++
			}
		}
		st.jobs += len(outcomes)
		st.events += r.ctx.Engine.Fired()
		st.submit += r.tp.clock.total
		st.submits += r.tp.clock.n
		rep := r.ctx.Collector.Report()
		st.killed += rep.Killed
		reports = append(reports, rep)
	}
	if len(runs) != cfg.Replications {
		return st, fmt.Errorf("%s: %d replications ran, want %d", where, len(runs), cfg.Replications)
	}
	if timed {
		t = clock()
		metrics.AverageReports(reports)
		st.reduce = since(t)
		g, err := timeGenerate(cfg, p)
		if err != nil {
			return st, err
		}
		st.generate = g
	}
	return st, nil
}

// timeGenerate times the per-replication input synthesis of one cell:
// workload.Generate, the arrival scaling, and qos.Synthesize.
func timeGenerate(cfg experiment.SuiteConfig, p experiment.Params) (time.Duration, error) {
	synth := workload.DefaultSynthConfig()
	synth.Jobs = cfg.Jobs
	t := clock()
	for r := 0; r < cfg.Replications; r++ {
		off := int64(experiment.ReplicationSeedStride * r)
		jobs, err := workload.Generate(synth, cfg.TraceSeed+off)
		if err != nil {
			return 0, err
		}
		workload.ScaleArrivals(jobs, p.ArrivalFactor)
		if err := qos.Synthesize(jobs, p.QoSConfig(cfg.QoSSeed+off)); err != nil {
			return 0, err
		}
	}
	return since(t), nil
}
