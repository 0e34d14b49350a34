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
		e.MustSchedule(sim.Time(at), "submit", func() {
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
