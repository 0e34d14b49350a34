package scheduler

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spaceQueue is the core every space-shared policy embeds: the machine, the
// wait queue, and the mechanics the queueing policies share — fault
// requeue, the write-off drain, the generous admission test, job start and
// completion accounting, the EASY pass and the running-jobs profile. A
// policy supplies only what is its own: its queue order, when it admits,
// its pass, and the instant its commodity charge is priced at.
type spaceQueue struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	queue   []*workload.Job
	name    string

	// pass is the policy's scheduling pass, run after every submission,
	// completion, failure and repair. It and done are bound once at
	// construction: a method value taken per call allocates.
	pass func()
	// done is the completion handler handed to the cluster at every start.
	done func(*workload.Job)
	// chargeAtStart prices the commodity charge at the job's start (the
	// generous admission control accepts a job when it starts); otherwise
	// it is priced at submission, when the policy accepted it.
	chargeAtStart bool
}

// init builds the context's space-shared machine, honoring node ratings
// when configured, and binds the policy's pass and the core's completion
// handler.
func (q *spaceQueue) init(ctx *Context, name string, pass func()) {
	q.ctx = ctx
	q.name = name
	q.pass = pass
	q.done = q.finish
	if len(ctx.NodeRatings) == ctx.Nodes && ctx.Nodes > 0 {
		q.cluster = cluster.NewSpaceSharedRated(ctx.Engine, ctx.NodeRatings)
	} else {
		q.cluster = cluster.NewSpaceShared(ctx.Engine, ctx.Nodes)
	}
}

func (q *spaceQueue) Name() string { return q.name }

// Utilization reports the machine's processor utilization so far.
func (q *spaceQueue) Utilization() float64 { return q.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the machine's
// running set, translating the cluster's Infinity sentinel into +Inf.
func (q *spaceQueue) EarliestAvailable(procs int) (float64, error) {
	t, err := q.cluster.EarliestAvailable(procs)
	if err != nil {
		return 0, err
	}
	if t >= sim.Infinity {
		return math.Inf(1), nil
	}
	return float64(t), nil
}

// Submit queues the job and runs the pass. Under the generous admission
// control this is the whole submission: the decision waits for the pass.
func (q *spaceQueue) Submit(j *workload.Job) {
	q.queue = append(q.queue, j)
	q.pass()
}

// Drain writes off every job still queued. The pass runs at every
// completion, so a job queued when the event queue empties could never
// start: it failed admission, or — under fault injection — it is wider
// than the surviving machine, or a failure victim whose restart window
// closed.
func (q *spaceQueue) Drain() {
	now := float64(q.ctx.Engine.Now())
	for _, j := range q.queue {
		writeOff(q.ctx.Collector, j, now)
	}
	q.queue = nil
}

// NodeDown fails a node: its resident job (if any) is requeued for a full
// restart, keeping whatever acceptance it holds, and the pass runs over the
// shrunken machine.
func (q *spaceQueue) NodeDown(node int) {
	if victim := q.cluster.Fail(node); victim != nil {
		q.queue = append(q.queue, victim)
	}
	q.pass()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (q *spaceQueue) NodeUp(node int) {
	q.cluster.Repair(node)
	q.pass()
}

// admissible applies the generous admission control at time now: the
// job's estimate must still fit before its deadline (which covers
// deadlines that lapse while queued) and, under the commodity model, its
// quoted cost must not exceed its budget.
func (q *spaceQueue) admissible(j *workload.Job, now float64) bool {
	if now+j.Estimate > j.AbsDeadline() {
		return false
	}
	if q.ctx.Model == economy.Commodity &&
		economy.BaseCharge(j.Estimate, q.ctx.PriceAt(now)) > j.Budget {
		return false
	}
	return true
}

// purge writes off every queued job that can no longer pass admission:
// plain rejection for jobs never accepted, a kill for requeued failure
// victims whose restart window has closed.
func (q *spaceQueue) purge(now float64) {
	kept := q.queue[:0]
	for _, j := range q.queue {
		if q.admissible(j, now) {
			kept = append(kept, j)
			continue
		}
		writeOff(q.ctx.Collector, j, now)
	}
	q.queue = kept
}

// start accepts (a no-op for a job accepted at submission) and begins
// executing a queued job. Callers have verified it fits.
func (q *spaceQueue) start(j *workload.Job) {
	now := float64(q.ctx.Engine.Now())
	q.ctx.Collector.Accepted(j)
	q.ctx.Collector.Started(j, now)
	if err := q.cluster.Start(j, q.done); err != nil {
		panic(err) // callers verified CanStart
	}
}

// finish settles a completed job and runs the pass. Under the commodity
// model the provider collects the base charge for the estimate, priced at
// the policy's charge instant and never more than the budget (§5.1). The
// admission tests already hold the charge within budget for every policy
// that has one, so the cap binds only without admission control.
func (q *spaceQueue) finish(j *workload.Job) {
	now := float64(q.ctx.Engine.Now())
	var utility float64
	switch q.ctx.Model {
	case economy.Commodity:
		at := j.Submit
		if q.chargeAtStart {
			at = q.ctx.Collector.Outcome(j).StartTime
		}
		utility = economy.BaseCharge(j.Estimate, q.ctx.PriceAt(at))
		if utility > j.Budget {
			utility = j.Budget
		}
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	q.ctx.Collector.Finished(j, now, utility)
	q.pass()
}

// fcfsLess orders jobs by arrival, then ID.
func fcfsLess(a, b *workload.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// sjfLess orders jobs by user estimate — the scheduler never sees actual
// runtimes — then ID.
func sjfLess(a, b *workload.Job) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate < b.Estimate
	}
	return a.ID < b.ID
}

// edfLess orders jobs by absolute deadline, then ID.
func edfLess(a, b *workload.Job) bool {
	if a.AbsDeadline() != b.AbsDeadline() {
		return a.AbsDeadline() < b.AbsDeadline()
	}
	return a.ID < b.ID
}

// sortJobs stably orders jobs by less: the one queue sort of the
// space-shared policies.
func sortJobs(jobs []*workload.Job, less func(a, b *workload.Job) bool) {
	sort.SliceStable(jobs, func(i, k int) bool { return less(jobs[i], jobs[k]) })
}

// startHeads starts queued jobs strictly in queue order while the head
// fits.
func (q *spaceQueue) startHeads() {
	for len(q.queue) > 0 && q.cluster.CanStart(q.queue[0].Procs) {
		q.start(q.queue[0])
		q.queue = q.queue[1:]
	}
}

// easy runs one EASY backfilling pass in the given order: start the
// highest-priority job while it fits, then backfill lower-priority jobs
// that fit now and finish (per estimate) before the head job's
// reservation.
func (q *spaceQueue) easy(less func(a, b *workload.Job) bool) {
	sortJobs(q.queue, less)
	q.startHeads()
	if len(q.queue) <= 1 {
		return
	}
	resTime, err := q.cluster.EarliestAvailable(q.queue[0].Procs)
	if err != nil {
		panic(err) // width was validated against the machine at Run
	}
	now := float64(q.ctx.Engine.Now())
	kept := q.queue[:1]
	for _, j := range q.queue[1:] {
		if q.cluster.CanStart(j.Procs) && now+j.Estimate <= float64(resTime) {
			q.start(j)
			continue
		}
		kept = append(kept, j)
	}
	q.queue = kept
}

// runningProfile starts an availability profile at now from the free
// processors and the believed completions of the running jobs; a job past
// its estimate is believed to finish imminently.
func (q *spaceQueue) runningProfile(now float64) profile {
	prof := newProfile(now, q.cluster.Nodes(), q.cluster.FreeProcs())
	for _, sj := range q.cluster.Running() {
		end := float64(sj.EstEnd)
		if end < now {
			end = now
		}
		prof.addRelease(end, sj.Job.Procs)
	}
	return prof
}
