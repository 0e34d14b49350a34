package streamrisk

import (
	"testing"

	"repro/internal/obs"
)

// lcg is a tiny deterministic generator for benchmark shapes; benchmarks
// must not touch math/rand's global source (repolint: globalrand) and need
// no statistical quality, just spread.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

func (l *lcg) float() float64 { return float64(l.next()%1_000_000) / 1_000_000 }

// BenchmarkRiskStreamIngest measures the engine's per-decision ingest cost
// with four saturated subscribers: every op folds one journal decision
// into session/policy/cluster/global trackers, snapshots all four score
// scopes, and fans the delta out (the subscribers' buffers fill after the
// first DefaultSubscriberBuffer events, so steady state is the
// non-blocking drop path — exactly what a stalled SSE consumer costs the
// admission path). Allocs/op gates at zero: the ingest fold must not
// allocate at steady state.
func BenchmarkRiskStreamIngest(b *testing.B) {
	const subs = 4
	b.ReportAllocs()
	e := NewEngine(Config{})
	for i := 0; i < subs; i++ {
		if _, err := e.Subscribe(); err != nil {
			b.Fatal(err)
		}
	}
	h := obs.SessionHeader{ID: "bench", Policy: "Libra", Model: "commodity"}
	var g lcg = 19
	decisions := make([]obs.SessionDecision, 256)
	for i := range decisions {
		runtime := 20 + g.float()*200
		decisions[i] = obs.SessionDecision{
			Job: i + 1, Submit: float64(i), Runtime: runtime, Estimate: runtime,
			Procs: 1 + int(g.next()%4), Deadline: runtime * (0.8 + g.float()),
			Budget: 50 + g.float()*100, PenaltyRate: g.float(),
			HighUrgency: g.next()%4 == 0, Admission: "accepted", Quote: 10 + g.float()*50,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.JournalDecision(h, decisions[i%len(decisions)])
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "events/s")
	}
	if snap := e.Snapshot(); snap.Seq != uint64(b.N) {
		b.Fatalf("engine ingested %d events, want %d", snap.Seq, b.N)
	}
}
