package main

import (
	"time"

	"repro/internal/experiment"
)

// suiteLayers fills the per-layer metrics of a traced suite run from the
// first pipeline pass and the replayed cells, and records the spans.
//
// Every share is of the pipeline's wall time. Serial phases (analysis,
// rendering, writing, the journal) count directly; in-cell layers
// (admission, input synthesis, reduce, and the event kernel with cluster
// accounting as the remainder) are their fraction of replayed cell time
// scaled by the suite phase's share of the pipeline.
func suiteLayers(c *capture, cfg experiment.SuiteConfig, pr *pipelineRun, cells []cellStats) {
	tr := newTracer(true)
	rel := func(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }
	root := tr.newID()
	end := pr.start.Add(pr.wall)
	spans := []Span{
		{ID: root, Name: "pipeline", Start: rel(pr.start), End: rel(end)},
		{ID: tr.newID(), Parent: root, Name: "experiment.run", Start: rel(pr.runStart), End: rel(pr.runStart.Add(pr.runWall))},
	}
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"obs.journal", pr.jrnl}, {"risk.analysis", pr.analysis}, {"plot.render", pr.render}, {"experiment.write", pr.write}} {
		spans = append(spans, Span{ID: tr.newID(), Parent: root, Name: ph.name, Start: rel(pr.start), End: rel(end), Count: 1, Total: int64(ph.d)})
	}

	type policyAgg struct {
		cells          int
		wall, submit   time.Duration
		submits        int64
		events         uint64
		accepted, jobs int
	}
	agg := map[string]*policyAgg{}
	var bare, wrapped, submit, generate, reduce time.Duration
	var submits int64
	var events uint64
	accepted, jobs, killed, sims := 0, 0, 0, 0
	for i, st := range cells {
		cell := tr.newID()
		req := uint64(i + 1)
		spans = append(spans,
			Span{ID: cell, Req: req, Name: "experiment.cell", Start: rel(st.start), End: rel(st.start.Add(st.wrapped))},
			Span{ID: tr.newID(), Parent: cell, Req: req, Name: "scheduler.submit", Start: rel(st.start), End: rel(st.start.Add(st.wrapped)), Count: st.submits, Total: int64(st.submit)})
		bare += st.bare
		wrapped += st.wrapped
		submit += st.submit
		submits += st.submits
		generate += st.generate
		reduce += st.reduce
		events += st.events
		accepted += st.accepted
		jobs += st.jobs
		killed += st.killed
		sims += cfg.Replications
		a := agg[st.ref.spec.Name]
		if a == nil {
			a = &policyAgg{}
			agg[st.ref.spec.Name] = a
		}
		a.cells++
		a.wall += st.wrapped
		a.submit += st.submit
		a.submits += st.submits
		a.events += st.events
		a.accepted += st.accepted
		a.jobs += st.jobs
	}
	c.Spans = spans

	W := float64(pr.wall)
	runShare := share(float64(pr.runWall), W)
	inCell := func(d time.Duration) float64 { return runShare * share(float64(d), float64(wrapped)) }
	L := c.Layers
	for _, m := range perLayer {
		L[m.name] = 0
	}
	L["bench.trace_overhead_share"] = share(float64(wrapped-bare), float64(bare))
	L["cpu.idle_share"] = 1 - share(float64(pr.runCPU), float64(pr.runWall)*float64(cfg.Workers))
	L["scheduler.submit_us"] = share(us(submit), float64(submits))
	L["scheduler.submit_share"] = inCell(submit)
	for name, a := range agg {
		L["scheduler.submit_share."+metricPolicy(name)] = inCell(a.submit)
	}
	L["scheduler.accept_ratio"] = share(float64(accepted), float64(jobs))
	L["sim.events_per_job"] = share(float64(events), float64(jobs))
	L["workload.generate_share"] = inCell(generate)
	L["metrics.reduce_share"] = inCell(reduce)
	L["sim.kernel_share"] = inCell(wrapped - submit - generate - reduce)
	L["faults.killed_per_sim"] = share(float64(killed), float64(sims))
	L["risk.analysis_share"] = share(float64(pr.analysis), W)
	L["plot.render_share"] = share(float64(pr.render), W)
	L["obs.journal_share"] = share(float64(pr.jrnl), W)
	L["experiment.write_share"] = share(float64(pr.write), W)

	D := c.Detail
	if q, err := summarize(pr.cellWalls); err == nil {
		D["experiment.cell_ms_p50"] = q.P50
		D["experiment.cell_ms_p95"] = nearestRank(sample(pr.cellWalls).sorted(), 95)
		D["experiment.cell_ms_max"] = q.Max
	}
	D["experiment.idle_share"] = L["cpu.idle_share"]
	for name, a := range agg {
		p := metricPolicy(name)
		D["experiment.cell_ms."+p] = ms(a.wall) / float64(a.cells)
		D["scheduler.submit_us."+p] = share(us(a.submit), float64(a.submits))
		D["scheduler.submit_share."+p] = L["scheduler.submit_share."+p]
		D["scheduler.submit_cell_share."+p] = share(float64(a.submit), float64(a.wall))
		D["sim.events."+p] = float64(a.events)
		D["scheduler.accept_ratio."+p] = share(float64(a.accepted), float64(a.jobs))
	}
	D["workload.generate_ms"] = share(ms(generate), float64(sims))
	D["metrics.reduce_us"] = share(us(reduce), float64(len(cells)))
	D["faults.killed_per_sim"] = L["faults.killed_per_sim"]
	D["risk.analysis_ms"] = ms(pr.analysis)
	D["plot.render_ms"] = ms(pr.render)
	D["obs.journal_ms"] = ms(pr.jrnl)
	D["experiment.write_ms"] = ms(pr.write)
	D["bench.trace_overhead_share"] = L["bench.trace_overhead_share"]
	D["replay.cells"] = float64(len(cells))
	D["pipeline.wall_ms"] = ms(pr.wall)
	D["experiment.run_ms"] = ms(pr.runWall)
}
