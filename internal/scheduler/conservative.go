package scheduler

import (
	"math"
)

// conservative implements conservative backfilling (Mu'alem & Feitelson):
// unlike EASY, *every* queued job holds a reservation, and a job may only
// skip ahead if it delays no reservation at all. The paper evaluates the
// EASY variants; this policy is the extension baseline the backfilling
// ablation compares against. It uses the same generous admission control
// and accounting as the EASY policies.
type conservative struct {
	spaceQueue
}

// NewFCFSConservative returns First Come First Serve with conservative
// backfilling.
func NewFCFSConservative(ctx *Context) Policy {
	c := &conservative{}
	c.init(ctx, "FCFS-CONS", c.schedule)
	c.chargeAtStart = true
	return c
}

// schedule replans all reservations from scratch in FCFS order against the
// availability profile, starting every job whose reservation is "now".
// Replanning each pass is the standard formulation: completions ahead of
// estimates compress the plan without ever pushing a reservation later.
func (c *conservative) schedule() {
	now := float64(c.ctx.Engine.Now())
	c.purge(now)
	sortJobs(c.queue, fcfsLess)
	prof := c.runningProfile(now)
	kept := c.queue[:0]
	for _, j := range c.queue {
		t := prof.earliest(now, j.Estimate, j.Procs)
		if t <= now && c.cluster.CanStart(j.Procs) {
			c.start(j)
			if err := prof.reserve(now, j.Estimate, j.Procs); err != nil {
				panic(err)
			}
			continue
		}
		if math.IsInf(t, 1) {
			// Failed nodes can shrink the machine below the job's width;
			// nothing schedulable remains for it, so write it off.
			writeOff(c.ctx.Collector, j, now)
			continue
		}
		if err := prof.reserve(t, j.Estimate, j.Procs); err != nil {
			panic(err)
		}
		kept = append(kept, j)
	}
	c.queue = kept
}
