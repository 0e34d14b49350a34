package scheduler

import (
	"repro/internal/workload"
)

// backfillPolicy implements EASY backfilling (Lifka; Mu'alem & Feitelson)
// over a space-shared cluster with the paper's "generous" admission
// control: jobs wait unexamined in a priority queue and are accepted only
// prior to execution; a job is rejected once its runtime estimate can no
// longer fit before its deadline (which covers deadlines that lapse while
// queued), and — under the commodity market model — when its quoted cost
// exceeds its budget. Accepted at its start, a job is charged the price in
// effect then.
type backfillPolicy struct {
	spaceQueue
	// less orders the queue by the policy's primary scheduling parameter.
	less func(a, b *workload.Job) bool
}

// NewFCFSBF returns First Come First Serve with EASY backfilling.
func NewFCFSBF(ctx *Context) Policy { return newBackfill(ctx, "FCFS-BF", fcfsLess) }

// NewSJFBF returns Shortest Job First with EASY backfilling (job length is
// the user estimate — the scheduler never sees actual runtimes).
func NewSJFBF(ctx *Context) Policy { return newBackfill(ctx, "SJF-BF", sjfLess) }

// NewEDFBF returns Earliest Deadline First with EASY backfilling.
func NewEDFBF(ctx *Context) Policy { return newBackfill(ctx, "EDF-BF", edfLess) }

func newBackfill(ctx *Context, name string, less func(a, b *workload.Job) bool) Policy {
	b := &backfillPolicy{less: less}
	b.init(ctx, name, b.schedule)
	b.chargeAtStart = true
	return b
}

// schedule purges the jobs that can no longer pass admission — a failure
// victim whose restart window closed is written off as killed — and runs
// one EASY pass. Admissibility depends only on the job and the instant, so
// no job becomes inadmissible during the pass.
func (b *backfillPolicy) schedule() {
	b.purge(float64(b.ctx.Engine.Now()))
	b.easy(b.less)
}
