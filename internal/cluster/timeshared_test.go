package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestTimeSharedSingleJobRunsAtFullRate(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 4)
	var finishedAt sim.Time
	j := job(1, 2, 100, 120)
	// Share 0.5, but alone on its nodes the job gets the whole processor.
	if err := c.Start(j, 0.5, []int{0, 1}, func(*workload.Job) { finishedAt = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finishedAt != 100 {
		t.Errorf("finished at %v, want 100 (spare capacity redistributes)", finishedAt)
	}
	if c.RunningCount() != 0 {
		t.Errorf("RunningCount = %d after run, want 0", c.RunningCount())
	}
	if c.FreeShare(0) != 1 {
		t.Errorf("FreeShare(0) = %v after completion, want 1", c.FreeShare(0))
	}
}

func TestTimeSharedProportionalSlowdown(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Two equal jobs share one node: each runs at rate 0.5, so 100 s of
	// work takes 200 s while both are present.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finish[1] != 200 || finish[2] != 200 {
		t.Errorf("finish times = %v, want both 200", finish)
	}
}

func TestTimeSharedRateRecoversAfterDeparture(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1: 100s work; job 2: 30s work. Both share 0.5 on one node.
	// Until job 2 finishes both run at 0.5. Job 2 finishes at t=60 with
	// 30s of work. Job 1 then has 100-30=70s left at rate 1 -> t=130.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 30, 30), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[2]-60)) > 1e-6 {
		t.Errorf("job 2 finished at %v, want 60", finish[2])
	}
	if math.Abs(float64(finish[1]-130)) > 1e-6 {
		t.Errorf("job 1 finished at %v, want 130", finish[1])
	}
}

func TestTimeSharedGuaranteedShareHolds(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1 share 0.8 (work 80), job 2 share 0.2 (work 10).
	// Rates: 0.8 and 0.2. Job 2 finishes at 10/0.2 = 50.
	// Job 1 has 80 - 0.8*50 = 40 left, now alone at rate 1: t=90.
	if err := c.Start(job(1, 1, 80, 80), 0.8, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 10, 10), 0.2, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[2]-50)) > 1e-6 {
		t.Errorf("job 2 finished at %v, want 50", finish[2])
	}
	if math.Abs(float64(finish[1]-90)) > 1e-6 {
		t.Errorf("job 1 finished at %v, want 90", finish[1])
	}
}

func TestTimeSharedParallelJobSlowestNode(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1 spans nodes 0,1 with share 0.5 and 100s of work.
	// Job 2 sits on node 1 with share 0.5 and 100s of work.
	// Node 1 is shared: job 1 runs at 0.5 overall (slowest node), even
	// though node 0 is otherwise idle.
	if err := c.Start(job(1, 2, 100, 100), 0.5, []int{0, 1}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{1}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[1]-200)) > 1e-6 {
		t.Errorf("parallel job finished at %v, want 200", finish[1])
	}
}

func TestTimeSharedAdmissionChecks(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	j := job(1, 1, 10, 10)
	if err := c.Start(j, 0, []int{0}, nil); err == nil {
		t.Error("zero share accepted")
	}
	if err := c.Start(j, 1.2, []int{0}, nil); err == nil {
		t.Error("share > 1 accepted")
	}
	if err := c.Start(j, 0.5, []int{0, 1}, nil); err == nil {
		t.Error("node count mismatch accepted")
	}
	if err := c.Start(job(2, 2, 10, 10), 0.5, []int{0, 0}, nil); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := c.Start(job(3, 1, 10, 10), 0.5, []int{5}, nil); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Start(j, 0.7, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(j, 0.3, []int{1}, nil); err == nil {
		t.Error("double Start of the same job accepted")
	}
	if err := c.Start(job(4, 1, 10, 10), 0.5, []int{0}, nil); err == nil {
		t.Error("over-committed node accepted")
	}
}

func TestTimeSharedCandidateNodesBestFit(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 3)
	// Node 0: load 0.6; node 1: load 0.2; node 2: empty.
	if err := c.Start(job(1, 1, 1000, 1000), 0.6, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 1000, 1000), 0.2, []int{1}, nil); err != nil {
		t.Fatal(err)
	}
	got := c.CandidateNodes(0.3)
	// Node 0 has 0.4 free, node 1 has 0.8, node 2 has 1.0. Best fit: 0,1,2.
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("CandidateNodes(0.3) = %v, want [0 1 2]", got)
	}
	got = c.CandidateNodes(0.5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("CandidateNodes(0.5) = %v, want [1 2]", got)
	}
}

// CandidateNodes returns a reused buffer that callers may filter in place
// (LibraRiskD does); doing so must not leak into the next answer.
func TestTimeSharedCandidateNodesInPlaceFilter(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 4)
	if err := c.Start(job(1, 1, 1000, 1000), 0.6, []int{2}, nil); err != nil {
		t.Fatal(err)
	}
	first := c.CandidateNodes(0.3)
	want := slices.Clone(first)
	kept := first[:0]
	for _, n := range first {
		if n%2 == 1 {
			kept = append(kept, n)
		}
	}
	kept[0] = 99
	if got := c.CandidateNodes(0.3); !slices.Equal(got, want) {
		t.Errorf("after filtering in place: CandidateNodes(0.3) = %v, want %v", got, want)
	}
}

// Clients may reuse job IDs (riskserved takes them from the request). A
// node's same-ID jobs sum in start order, so a committed-seconds quote has
// one defined float value; Fail reports them, and same-instant completions
// retire them, in that order too.
func TestTimeSharedDuplicateIDsHaveDefinedOrder(t *testing.T) {
	type spec struct {
		id              int
		share, deadline float64
	}
	// Start order differs from ID order; the two ID-2 jobs' terms sum to a
	// different last bit depending on which is added first.
	specs := []spec{{2, 0.2, 77}, {1, 0.1, 100}, {2, 0.3, 333}}
	byID := []spec{specs[1], specs[0], specs[2]}
	want, swapped := 0.0, 0.0
	for _, s := range byID {
		want += s.share * s.deadline
	}
	for _, s := range []spec{byID[0], byID[2], byID[1]} {
		swapped += s.share * s.deadline
	}
	if want == swapped {
		t.Fatal("fixture is order-insensitive; pick terms whose sum depends on order")
	}
	for trial := 0; trial < 50; trial++ {
		e := sim.NewEngine()
		c := NewTimeShared(e, 1)
		var jobs []*workload.Job
		for _, s := range specs {
			j := djob(s.id, 1, 0, 1e4, 1e4, s.deadline)
			jobs = append(jobs, j)
			if err := c.Start(j, s.share, []int{0}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.CommittedSeconds(0, 1000); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: CommittedSeconds = %v, want %v (ID order, same-ID jobs in start order)", trial, got, want)
		}
		victims := c.Fail(0)
		if len(victims) != 3 || victims[0] != jobs[1] || victims[1] != jobs[0] || victims[2] != jobs[2] {
			t.Fatalf("trial %d: Fail victims out of ID-then-start order", trial)
		}
	}

	// Jobs finishing in the same instant complete in job-ID order, same-ID
	// jobs in start order. Started in descending ID order, pairs sharing
	// an ID, so the retirement sort has real work to do.
	const width = 64
	e := sim.NewEngine()
	c := NewTimeShared(e, width)
	var started, finished []*workload.Job
	for n := 0; n < width; n++ {
		j := job((width-n)/2, 1, 100, 100)
		started = append(started, j)
		if err := c.Start(j, 1, []int{n}, func(j *workload.Job) { finished = append(finished, j) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	byIDThenStart := slices.Clone(started)
	slices.SortStableFunc(byIDThenStart, func(a, b *workload.Job) int { return a.ID - b.ID })
	if !slices.Equal(finished, byIDThenStart) {
		t.Error("jobs finishing together did not complete in ID-then-start order")
	}
}

func TestTimeSharedOverrunDetection(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	// Estimate 50 but actual work 100: overruns from t=50.
	j := job(1, 1, 100, 50)
	if err := c.Start(j, 1.0, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(25, func() {
		if c.NodeHasOverrun(0) {
			t.Error("overrun reported at t=25, estimate is 50")
		}
		if tj := c.Lookup(j); tj == nil || math.Abs(tj.Progress()-25) > 1e-6 {
			t.Errorf("progress = %v at t=25, want 25", tj.Progress())
		}
	})
	e.MustSchedule(75, func() {
		if !c.NodeHasOverrun(0) {
			t.Error("no overrun reported at t=75, estimate was 50")
		}
		if c.NodeHasOverrun(1) {
			t.Error("empty node reports overrun")
		}
	})
	e.Run()
}

// Property: regardless of the mix of shares and work, every job's finish
// time is at most remaining/share after its start (the Libra guarantee) and
// at least its dedicated runtime.
func TestTimeSharedGuaranteeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		e := sim.NewEngine()
		c := NewTimeShared(e, 4)
		type rec struct {
			start    sim.Time
			runtime  float64
			share    float64
			finished sim.Time
		}
		recs := make(map[int]*rec)
		nextID := 1
		var submit func(at sim.Time)
		submit = func(at sim.Time) {
			e.MustSchedule(at, func() {
				id := nextID
				nextID++
				runtime := 10 + rng.Float64()*200
				share := 0.1 + rng.Float64()*0.4
				procs := 1 + rng.Intn(2)
				j := job(id, procs, runtime, runtime)
				nodes := c.CandidateNodes(share)
				if len(nodes) < procs {
					return
				}
				r := &rec{start: e.Now(), runtime: runtime, share: share}
				recs[id] = r
				if err := c.Start(j, share, nodes[:procs], func(*workload.Job) { r.finished = e.Now() }); err != nil {
					t.Fatalf("Start: %v", err)
				}
			})
		}
		for i := 0; i < 12; i++ {
			submit(sim.Time(rng.Float64() * 300))
		}
		e.Run()
		for id, r := range recs {
			elapsed := float64(r.finished - r.start)
			if elapsed+1e-6 < r.runtime {
				t.Fatalf("job %d finished in %v < dedicated runtime %v", id, elapsed, r.runtime)
			}
			bound := r.runtime / r.share
			if elapsed > bound+1e-6 {
				t.Fatalf("job %d took %v > guaranteed bound %v (share %v)", id, elapsed, bound, r.share)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: shares committed and released must balance: after all jobs
// finish, every node is empty and fully free.
func TestTimeSharedConservationProperty(t *testing.T) {
	rng := stats.NewRand(7)
	for trial := 0; trial < 20; trial++ {
		e := sim.NewEngine()
		c := NewTimeShared(e, 8)
		completed := 0
		started := 0
		for i := 0; i < 30; i++ {
			at := sim.Time(rng.Float64() * 500)
			id := i + 1
			e.MustSchedule(at, func() {
				share := 0.05 + rng.Float64()*0.5
				procs := 1 + rng.Intn(4)
				nodes := c.CandidateNodes(share)
				if len(nodes) < procs {
					return
				}
				started++
				runtime := 1 + rng.Float64()*100
				err := c.Start(job(id, procs, runtime, runtime), share, nodes[:procs], func(*workload.Job) { completed++ })
				if err != nil {
					t.Fatalf("Start: %v", err)
				}
			})
		}
		e.Run()
		if completed != started {
			t.Fatalf("trial %d: started %d jobs, completed %d", trial, started, completed)
		}
		for n := 0; n < c.Nodes(); n++ {
			if math.Abs(c.FreeShare(n)-1) > 1e-6 {
				t.Fatalf("trial %d: node %d free share %v after drain, want 1", trial, n, c.FreeShare(n))
			}
		}
		if c.RunningCount() != 0 {
			t.Fatalf("trial %d: %d jobs still running", trial, c.RunningCount())
		}
	}
}

func TestNewTimeSharedPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTimeShared(0) did not panic")
		}
	}()
	NewTimeShared(sim.NewEngine(), 0)
}

func TestTimeSharedUtilization(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	// One single-proc job alone: runs at rate 1 on 1 of 2 nodes for 100 s.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(100, func() {
		if got := c.Utilization(); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("utilization at t=100 = %v, want 0.5", got)
		}
	})
	e.Run()
}

func TestRatedNodeRunsFaster(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeSharedRated(e, []float64{2.0, 0.5})
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// 100 s of reference work: 50 s on the fast node, 200 s on the slow.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{1}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[1]-50)) > 1e-6 {
		t.Errorf("fast-node job finished at %v, want 50", finish[1])
	}
	if math.Abs(float64(finish[2]-200)) > 1e-6 {
		t.Errorf("slow-node job finished at %v, want 200", finish[2])
	}
	if c.Rating(0) != 2.0 || c.Rating(1) != 0.5 {
		t.Error("Rating() wrong")
	}
}

func TestRatedParallelJobBoundBySlowestNode(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeSharedRated(e, []float64{2.0, 0.5})
	var finished sim.Time
	if err := c.Start(job(1, 2, 100, 100), 1.0, []int{0, 1}, func(*workload.Job) { finished = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Slowest node governs: rate 0.5 -> 200 s.
	if math.Abs(float64(finished-200)) > 1e-6 {
		t.Errorf("parallel job finished at %v, want 200", finished)
	}
}

func TestRatedSharingScalesWithSpeed(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeSharedRated(e, []float64{2.0})
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Two equal shares on a double-speed node: each runs at effective
	// rate 1.0, finishing 100 s of work in 100 s.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[1]-100)) > 1e-6 || math.Abs(float64(finish[2]-100)) > 1e-6 {
		t.Errorf("finish times = %v, want both 100", finish)
	}
}

func TestNewTimeSharedRatedPanics(t *testing.T) {
	for name, ratings := range map[string][]float64{
		"empty":    {},
		"zero":     {1, 0},
		"negative": {-1},
	} {
		ratings := ratings
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			NewTimeSharedRated(sim.NewEngine(), ratings)
		})
	}
}
