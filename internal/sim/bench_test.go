package sim

import "testing"

// Kernel benchmarks. cmd/benchjson captures them at Go's default
// benchtime, so each reports the steady-state per-event cost.

// lcg is a tiny deterministic generator for benchmark shapes; benchmarks
// must not touch math/rand's global source (repolint: globalrand) and need
// no statistical quality, just spread.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

func (l *lcg) float() float64 { return float64(l.next()%1_000_000) / 1_000_000 }

func reportEventsPerSec(b *testing.B, e *Engine) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(e.Fired())/s, "events/s")
	}
}

// BenchmarkEngineSteadyState is the kernel's headline number: the
// schedule→dispatch cycle at heap depth 1, each fired handler scheduling
// its successor. One op = one event through a warm engine (pool hit) —
// the purest view of per-event overhead.
func BenchmarkEngineSteadyState(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	remaining := b.N
	var spawn func()
	spawn = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e.MustSchedule(e.Now()+1, "bench", spawn)
	}
	b.ResetTimer()
	spawn()
	e.Run()
	b.StopTimer()
	reportEventsPerSec(b, e)
}

// BenchmarkEngineSteadyWave keeps ~1024 events pending at all times: each
// handler schedules a replacement one tick out, so pops work against a
// realistically deep heap with heavy (time, seq) tie-breaking.
func BenchmarkEngineSteadyWave(b *testing.B) {
	const depth = 1024
	b.ReportAllocs()
	e := NewEngine()
	remaining := b.N
	var spawn func()
	spawn = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e.MustSchedule(e.Now()+1, "wave", spawn)
	}
	b.ResetTimer()
	for i := 0; i < depth && remaining > 0; i++ {
		spawn()
	}
	e.Run()
	b.StopTimer()
	reportEventsPerSec(b, e)
}

// BenchmarkEngineCancel measures the schedule→cancel cycle against a
// 256-deep background heap — the TimeShared completion-event reschedule
// pattern, the kernel's hottest cancel path.
func BenchmarkEngineCancel(b *testing.B) {
	const depth = 256
	b.ReportAllocs()
	e := NewEngine()
	var g lcg = 7
	for i := 0; i < depth; i++ {
		e.MustSchedule(Time(1e9+g.float()*1e9), "background", func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.MustSchedule(Time(1+g.float()*1e6), "victim", func() {})
		e.Cancel(ev)
	}
}

// BenchmarkEngineMixedHeap schedules scattered batches of 4096 events and
// drains them, mixing siftUp and siftDown against a churning heap.
func BenchmarkEngineMixedHeap(b *testing.B) {
	const depth = 4096
	b.ReportAllocs()
	e := NewEngine()
	var g lcg = 42
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := depth
		if b.N-done < batch {
			batch = b.N - done
		}
		base := e.Now()
		for i := 0; i < batch; i++ {
			e.MustSchedule(base+Time(g.float()*1000), "mixed", func() {})
		}
		e.Run()
		done += batch
	}
	b.StopTimer()
	reportEventsPerSec(b, e)
}
