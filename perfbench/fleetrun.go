package main

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/streamrisk"
)

// runFleet measures one fleet workload: set up (input synthesis, fleet
// boot, warm-up) seven times, then an open-loop phase and a closed-loop
// phase of half the measuring time each, with one SSE subscriber on the
// plane throughout; then finish every session and check it offline.
func runFleet(o options, spec fleetSpec) (*capture, error) {
	tr := newTracer(false)
	nproc := runtime.NumCPU()
	pols := len(commodityPolicies())
	dur := time.Duration(o.seconds) * time.Second / 2
	openWrites := int(spec.rate*dur.Seconds()) / (1 + spec.readsPerWrite)
	openGens := openWrites/(spec.live*(jobsPerSession+5)) + 1
	var f *fleet
	var d *driver
	var pl *planner
	setup, err := timeSetup(7, func() error {
		if f != nil {
			f.close()
			d.client.CloseIdleConnections()
		}
		pl = &planner{seed: o.seed, made: map[int64]*sessionPlan{}}
		for s := 0; s < spec.live; s++ {
			for g := 0; g <= openGens; g++ {
				if _, err := pl.get(int64(s)+openStride*int64(g), jobsPerSession); err != nil {
					return err
				}
			}
		}
		for c := 0; c < nproc; c++ {
			for g := 0; g < closedPool; g++ {
				if _, err := pl.get(closedBase+int64(g%pols+c*pols)+closedStride*int64(g/pols), jobsPerSession); err != nil {
					return err
				}
			}
		}
		var err error
		if f, err = bootFleet(tr); err != nil {
			return err
		}
		d = &driver{f: f, client: newGenClient(nproc)}
		for k := 0; k < warmupSessions; k++ {
			plan, err := planSession(o.seed, warmupBase+int64(k), warmupJobs)
			if err != nil {
				return err
			}
			s := &sess{plan: plan, jobs: warmupJobs}
			for !s.done && d.err() == nil {
				d.step(s)
			}
		}
		return d.err()
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	defer d.client.CloseIdleConnections()
	c := newCapture()
	c.E2E["setup_s"] = setup.Seconds()
	shed0 := shedCount()

	probe, err := startSSE(f.url)
	if err != nil {
		return nil, err
	}
	defer probe.stop(0) // stops the subscriber on every early return
	tr.on.Store(o.trace)
	slots := make([]*sess, spec.live)
	for s := range slots {
		plan, err := pl.get(int64(s), jobsPerSession)
		if err != nil {
			return nil, err
		}
		slots[s] = &sess{plan: plan, jobs: jobsPerSession}
	}
	runtime.GC() // start the measured phases from the same heap state
	openRecs, peak, err := d.openLoop(spec, pl, slots, dur, o.seed)
	if err != nil {
		return nil, err
	}
	// Memory high-water through the fixed-work part of the run (set-up and
	// the open loop); the closed loop's volume varies with throughput.
	c.E2E["max_rss_mb"] = maxRSSMB()
	cpu0 := cpuTime()
	t2 := clock()
	closedRecs, leftover, slices, err := d.closedLoop(spec, pl, slots, dur, o.trace)
	wall2, cpu2 := since(t2), cpuTime()-cpu0
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}

	// Epilogue (untimed): finish every session, settle the stream.
	for _, s := range append(slots, leftover...) {
		if s != nil {
			d.finish(s)
		}
	}
	var endSnap streamrisk.Snapshot
	if rec := d.do("risk", http.MethodGet, "/v1/risk", nil, http.StatusOK, &endSnap, nil); !rec.ok {
		return nil, d.err()
	}
	probe.stop(endSnap.Seq)
	if err := d.err(); err != nil {
		return nil, err
	}
	if probe.err != nil {
		return nil, fmt.Errorf("risk stream: %w", probe.err)
	}
	sse, err := accountSSE(probe.anchor, probe.events, endSnap.Seq)
	if err != nil {
		return nil, err
	}
	finals := int64(0)
	for _, s := range d.sessions {
		if !s.done {
			return nil, fmt.Errorf("session %s was never finished", s.id)
		}
		finals++
	}
	if err := checkScopes(endSnap, d, finals); err != nil {
		return nil, err
	}
	rt := &replayTimes{policy: map[string]*policyReplay{}}
	eng := streamrisk.NewEngine(streamrisk.Config{})
	for _, s := range d.sessions {
		if err := checkSession(s, eng, rt); err != nil {
			return nil, err
		}
	}

	c.Attempted, c.Failed = d.tried.Load(), d.failed.Load()
	submits2 := int64(0)
	for _, r := range closedRecs {
		if r.op == "submit" && r.ok {
			submits2++
		}
	}
	var rates, cpus []float64
	for _, sl := range slices {
		if !sl.traced {
			rates = append(rates, sl.rate())
			cpus = append(cpus, sl.cpuPerOp())
		}
	}
	c.E2E["ops_per_s"] = nearestRank(sample(rates).sorted(), 75)
	c.E2E["cpu_ms_per_op"] = median(cpus)
	var admit, read sample
	windows := make([]sample, latencyWindows)
	start1 := openRecs[0].due
	lateMax, late := time.Duration(0), 0
	var lateness sample
	for _, r := range openRecs {
		lateness = append(lateness, ms(r.late))
		l := ms(r.end.Sub(r.due))
		if r.op == "submit" {
			admit = append(admit, l)
		}
		if r.read {
			read = append(read, l)
		}
		// fleet-admit's figure is its submissions, fleet-watch's its reads.
		if (spec.readsPerWrite == 0 && r.op == "submit") || r.read {
			w := int(r.due.Sub(start1) * latencyWindows / dur)
			if w >= latencyWindows {
				w = latencyWindows - 1
			}
			if w < 0 {
				w = 0
			}
			windows[w] = append(windows[w], l)
		}
		if r.late > lateMax {
			lateMax = r.late
		}
		if r.late > lateThreshold {
			late++
		}
	}
	var p50s, p90s []float64
	for w, ws := range windows {
		q, err := summarize(ws)
		if err != nil {
			return nil, fmt.Errorf("open-loop window %d: %w", w, err)
		}
		if err := requireTail(fmt.Sprintf("open-loop window %d", w), q.N, 90, 10); err != nil {
			return nil, err
		}
		p50s, p90s = append(p50s, q.P50), append(p90s, q.P90)
	}
	c.E2E["latency_ms_p50"] = median(p50s)
	c.Detail["latency_ms_p90"] = median(p90s)
	c.Detail["max_rss_mb_end"] = maxRSSMB()

	D := c.Detail
	putQuantiles(D, "admit_ms", admit)
	putQuantiles(D, "read_ms", read)
	D["gen.late_ms_max"] = ms(lateMax)
	D["gen.late_ms_p50"] = median(lateness)
	D["gen.late_share"] = share(float64(late), float64(len(openRecs)))
	D["open.requests"] = float64(len(openRecs))
	D["closed.decisions"] = float64(submits2)
	D["closed.wall_s"] = wall2.Seconds()
	D["closed.decisions_per_s"] = float64(submits2) / wall2.Seconds()
	D["closed.cpu_ms_per_decision"] = ms(cpu2) / float64(submits2)
	D["serve.live_sessions_max"] = float64(peak)
	D["serve.shed"] = float64(shedCount() - shed0)
	D["scheduler.accept_ratio"] = share(float64(d.accepted.Load()), float64(d.decided.Load()))
	D["sessions"] = float64(len(d.sessions))
	D["streamrisk.sse_deltas"] = float64(sse.deltas)
	D["streamrisk.sse_resyncs"] = float64(sse.resyncs)
	D["streamrisk.sse_dropped"] = float64(sse.resynced + sse.gaps)
	D["streamrisk.sse_stale"] = float64(sse.stale)
	D["streamrisk.sse_delivered_ratio"] = share(float64(sse.deltas), float64(endSnap.Seq-probe.anchor))
	D["streamrisk.sse_end_lag"] = float64(sse.lag)
	D["cpu.idle_share"] = 1 - share(float64(cpu2), float64(wall2)*float64(runtime.GOMAXPROCS(0)))
	if o.trace {
		if err := fleetLayers(c, spec, d, rt, slices, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// closedPool is how many closed-loop session plans per client set-up
// synthesizes, enough that the closed loop never generates one mid-phase.
const closedPool = 120

// latencyWindows is how many equal windows of the open-loop phase the
// latency percentiles are taken over; the reported figure is the median
// window's, so one disturbed instant cannot move it.
const latencyWindows = 10

// putQuantiles records a latency sample's count, p50, and p99 when at
// least ten observations lie beyond it.
func putQuantiles(D map[string]float64, name string, s sample) {
	D[name+"_n"] = float64(len(s))
	q, err := summarize(s)
	if err != nil {
		return
	}
	D[name+"_p50"] = q.P50
	if requireTail(name, q.N, 99, 10) == nil {
		D[name+"_p99"] = q.P99
	}
	D[name+"_max"] = q.Max
}

// shedCount reads the workers' process-wide shed counter.
func shedCount() int64 {
	if v, ok := expvar.Get("serve.requests_rejected").(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// fleetLayers fills the per-layer metrics of a traced fleet run. Shares
// are of the total client-observed request time T. The HTTP layers come
// from the span tree (client → plane → forward → worker); the worker's
// submit path is decomposed with the replay's per-submission means scaled
// by the traced submissions.
func fleetLayers(c *capture, spec fleetSpec, d *driver, rt *replayTimes, slices []slice, spans []Span) error {
	c.Spans = spans
	lt := selfTimes(spans)
	var T float64
	var clientSelf int64
	ops := map[string]sample{}
	tracedSubmits := int64(0)
	for _, s := range spans {
		if op, ok := strings.CutPrefix(s.Name, "client."); ok {
			T += float64(s.Dur())
			ops[op] = append(ops[op], float64(s.Dur())/1e6)
			if op == "submit" {
				tracedSubmits++
			}
		}
	}
	for name, l := range lt {
		if strings.HasPrefix(name, "client.") {
			clientSelf += l.Self
		}
	}
	L := c.Layers
	for _, m := range perLayer {
		L[m.name] = 0
	}
	plane, fwd, worker := lt["control.handle"], lt["control.forward"], lt["serve.handle"]
	perSubmit := func(d time.Duration) float64 { return share(float64(d), float64(rt.submits)) }
	scaled := func(d time.Duration) float64 { return share(perSubmit(d)*float64(tracedSubmits), T) }
	var n, secs [2]float64 // index 1: traced slices
	for _, sl := range slices {
		i := 0
		if sl.traced {
			i = 1
		}
		n[i] += float64(sl.submits)
		secs[i] += sl.t1.Sub(sl.t0).Seconds()
	}
	L["bench.trace_overhead_share"] = share(share(n[0], secs[0]), share(n[1], secs[1])) - 1
	L["cpu.idle_share"] = c.Detail["cpu.idle_share"]
	L["client.overhead_share"] = share(float64(clientSelf), T)
	L["control.self_share"] = share(float64(plane.Self), T)
	L["control.forward_net_share"] = share(float64(fwd.Self), T)
	L["serve.handle_share"] = share(float64(worker.Total), T)
	L["serve.decode_share"] = scaled(rt.decode)
	L["obs.journal_append_share"] = scaled(rt.journal)
	L["streamrisk.fold_share"] = scaled(rt.fold)
	L["serve.encode_share"] = scaled(rt.encode)
	var polSubmit time.Duration
	var polN int64
	for name, pr := range rt.policy {
		polSubmit += pr.submit
		polN += pr.submits
		L["scheduler.submit_share."+metricPolicy(name)] = scaled(pr.submit)
		c.Detail["scheduler.submit_us."+metricPolicy(name)] = share(us(pr.submit), float64(pr.submits))
	}
	L["scheduler.submit_us"] = share(us(polSubmit), float64(polN))
	L["scheduler.submit_share"] = scaled(polSubmit)
	L["scheduler.accept_ratio"] = c.Detail["scheduler.accept_ratio"]
	L["sim.events_per_job"] = share(float64(rt.events), float64(rt.submits))
	L["faults.killed_per_sim"] = share(float64(rt.killed), float64(rt.sessions))
	for _, k := range []string{"streamrisk.sse_deltas", "streamrisk.sse_resyncs", "streamrisk.sse_dropped",
		"streamrisk.sse_delivered_ratio", "streamrisk.sse_end_lag", "serve.shed", "serve.live_sessions_max", "gen.late_share"} {
		L[k] = c.Detail[k]
	}
	snapUS, snapKB, err := snapshotCost(d, spec.live)
	if err != nil {
		return err
	}
	L["streamrisk.snapshot_kb"] = snapKB

	D := c.Detail
	names := make([]string, 0, len(ops))
	for op := range ops {
		names = append(names, op)
	}
	sort.Strings(names)
	for _, op := range names {
		putQuantiles(D, "client."+op+"_ms", ops[op])
	}
	D["control.handle_us"] = plane.meanUS()
	D["control.forward_us"] = fwd.meanUS()
	D["serve.handle_us"] = worker.meanUS()
	D["control.self_us"] = plane.selfUS()
	D["control.forward_net_us"] = fwd.selfUS()
	D["client.overhead_us"] = share(float64(clientSelf)/1e3, float64(len(spans)-int(plane.N+fwd.N+worker.N)))
	D["serve.decode_us"] = perSubmit(rt.decode) / 1e3
	D["scheduler.session_submit_us"] = perSubmit(rt.step) / 1e3
	D["obs.journal_append_us"] = perSubmit(rt.journal) / 1e3
	D["streamrisk.fold_us"] = perSubmit(rt.fold) / 1e3
	D["serve.encode_us"] = perSubmit(rt.encode) / 1e3
	D["streamrisk.snapshot_us"] = snapUS
	D["streamrisk.snapshot_kb"] = snapKB
	D["scheduler.submit_us"] = L["scheduler.submit_us"]
	D["bench.trace_overhead_share"] = L["bench.trace_overhead_share"]
	D["spans"] = float64(len(spans))
	return nil
}

// snapshotCost folds the first live sessions' journals into a fresh engine
// — the run's live-session count — and times the snapshot plus its JSON
// rendering as /v1/risk serves it (median of 21).
func snapshotCost(d *driver, live int) (float64, float64, error) {
	eng := streamrisk.NewEngine(streamrisk.Config{})
	for i, s := range d.sessions {
		if i == live {
			break
		}
		rec, err := obs.ParseSessionJournal(s.journal)
		if err != nil {
			return 0, 0, err
		}
		eng.IngestRecord(rec)
	}
	var times []float64
	size := 0
	for i := 0; i < 21; i++ {
		var b bytes.Buffer
		t := clock()
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(eng.Snapshot()); err != nil {
			return 0, 0, err
		}
		times = append(times, us(since(t)))
		size = b.Len()
	}
	return median(times), float64(size) / 1024, nil
}
