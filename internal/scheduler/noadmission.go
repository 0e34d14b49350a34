package scheduler

import (
	"repro/internal/workload"
)

// noAdmission is the baseline the paper dismisses in §5.2: plain EASY
// backfilling with NO admission control — every job is accepted at
// submission and executed eventually, deadlines be damned. The paper notes
// these "policies without job admission control perform much worse,
// especially when deadlines of jobs are short"; the admission-control
// ablation bench quantifies that claim. Under the commodity model a job is
// still charged its quote at the price in effect at submission, capped at
// its budget since the provider may not charge more; under the bid-based
// model late jobs accrue the usual unbounded penalties. A failure victim
// is requeued unconditionally — there is no admission control to refuse
// the restart.
type noAdmission struct {
	spaceQueue
	less func(a, b *workload.Job) bool
}

// NewFCFSNoAC returns First Come First Serve backfilling without admission
// control.
func NewFCFSNoAC(ctx *Context) Policy { return newNoAdmission(ctx, "FCFS-BF/noAC", fcfsLess) }

// NewEDFNoAC returns Earliest Deadline First backfilling without admission
// control.
func NewEDFNoAC(ctx *Context) Policy { return newNoAdmission(ctx, "EDF-BF/noAC", edfLess) }

func newNoAdmission(ctx *Context, name string, less func(a, b *workload.Job) bool) Policy {
	n := &noAdmission{less: less}
	n.init(ctx, name, n.schedule)
	return n
}

// Submit accepts the job unconditionally and immediately — the whole point
// of the baseline.
func (n *noAdmission) Submit(j *workload.Job) {
	n.ctx.Collector.Accepted(j)
	n.spaceQueue.Submit(j)
}

func (n *noAdmission) schedule() { n.easy(n.less) }
