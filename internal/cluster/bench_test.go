package cluster

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Accounting benchmarks. cmd/benchjson captures them at Go's default
// benchtime, so each reports the steady-state per-op cost.

// lcg is a tiny deterministic generator for benchmark shapes; benchmarks
// must not touch math/rand's global source (repolint: globalrand) and need
// no statistical quality, just spread.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

func (l *lcg) float() float64 { return float64(l.next()%1_000_000) / 1_000_000 }

// BenchmarkTimeSharedChurn pushes b.N jobs through a 32-node
// proportional-share cluster with overlapping lifetimes, mixed widths and
// shares, and a slice of lapsing deadlines — the Libra-family hot path
// (booking, reweighting, completion rescheduling).
func BenchmarkTimeSharedChurn(b *testing.B) {
	const nodes = 32
	b.ReportAllocs()
	e := sim.NewEngine()
	ts := NewTimeShared(e, nodes)
	var g lcg = 3
	started := 0
	for i := 0; i < b.N; i++ {
		id := i + 1
		at := float64(i) * 2
		procs := 1 + int(g.next()%4)
		runtime := 20 + g.float()*200
		share := 0.1 + g.float()*0.4
		deadline := runtime * (0.8 + g.float()) // ~20% lapse before completing
		e.MustSchedule(sim.Time(at), func() {
			cand := ts.CandidateNodes(share)
			if len(cand) < procs {
				return
			}
			j := &workload.Job{ID: id, Submit: at, Runtime: runtime,
				Estimate: runtime, Procs: procs, Deadline: deadline}
			started++
			if err := ts.Start(j, share, cand[:procs], nil); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if started == 0 {
		b.Fatal("degenerate benchmark: no job started")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(e.Fired())/s, "events/s")
		b.ReportMetric(float64(started)/s, "jobs/s")
	}
}

// BenchmarkTimeSharedAdmit measures one Libra+$-shaped admission on a
// 128-node proportional-share machine in steady state: the best-fit
// CandidateNodes query, then CommittedSeconds on the first Procs
// candidates (the RESFree price inputs). Admissions run in rounds of
// eight; between rounds, with the timer stopped, the round's admitted jobs
// start and the oldest residents are killed to hold the population. Start
// must allocate the job's record, but the admission query itself —
// including the candidate re-sort the starts leave pending — must not
// allocate.
func BenchmarkTimeSharedAdmit(b *testing.B) {
	const nodes, resident, round = 128, 96, 8
	e := sim.NewEngine()
	ts := NewTimeShared(e, nodes)
	var g lcg = 5
	type admitted struct {
		share, deadline float64
		nodes           [8]int
		procs           int
	}
	pending := make([]admitted, 0, round)
	var running []*workload.Job
	id := 0
	sink := 0.0
	admit := func() {
		procs := 1 + int(g.next()%8)
		share := 0.05 + g.float()*0.3
		deadline := 1000 + g.float()*9000
		cand := ts.CandidateNodes(share)
		if len(cand) < procs {
			return
		}
		a := admitted{share: share, deadline: deadline, procs: procs}
		for k, n := range cand[:procs] {
			sink += ts.CommittedSeconds(n, deadline)
			a.nodes[k] = n
		}
		pending = append(pending, a)
	}
	startPending := func() {
		for _, a := range pending {
			id++
			j := &workload.Job{ID: id, Runtime: 1e9, Estimate: a.share * a.deadline,
				Procs: a.procs, Deadline: a.deadline}
			if ts.Start(j, a.share, a.nodes[:a.procs], nil) != nil {
				continue // an earlier start in the round took the capacity
			}
			running = append(running, j)
			if len(running) > resident {
				if err := ts.Kill(running[0]); err != nil {
					b.Fatal(err)
				}
				running = running[1:]
			}
		}
		pending = pending[:0]
	}
	for tries := 0; len(running) < resident && tries < 100*resident; tries++ {
		admit()
		startPending()
	}
	if len(running) < resident {
		b.Fatalf("degenerate benchmark: only %d of %d resident jobs admitted", len(running), resident)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit()
		if len(pending) == round || i == b.N-1 {
			b.StopTimer()
			startPending()
			b.StartTimer()
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("degenerate benchmark: nothing committed")
	}
}

// BenchmarkSpaceSharedEarliest measures the EASY-backfilling reservation
// queries (EarliestAvailable, AvailableAt) against a 128-node machine with
// ~96 running jobs — the per-submission cost every backfilling policy pays.
func BenchmarkSpaceSharedEarliest(b *testing.B) {
	const nodes = 128
	b.ReportAllocs()
	e := sim.NewEngine()
	ss := NewSpaceShared(e, nodes)
	var g lcg = 11
	for id := 1; ss.FreeProcs() > nodes/4; id++ {
		procs := 1 + int(g.next()%3)
		if procs > ss.FreeProcs() {
			procs = ss.FreeProcs()
		}
		j := &workload.Job{ID: id, Runtime: 1e6 + g.float()*1e6,
			Estimate: 1e6 + g.float()*1e6, Procs: procs}
		if err := ss.Start(j, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	sink := sim.Time(0)
	count := 0
	for i := 0; i < b.N; i++ {
		w := 1 + int(g.next())%nodes
		at, err := ss.EarliestAvailable(w)
		if err != nil {
			b.Fatal(err)
		}
		sink += at
		count += ss.AvailableAt(at)
	}
	b.StopTimer()
	if count == 0 && sink == 0 {
		b.Fatal("degenerate benchmark: no availability answers")
	}
}
