package scheduler

import (
	"repro/internal/economy"
	"repro/internal/workload"
)

// qops implements a simplified QoPS (Islam et al., the paper's reference
// [13]): admission control with a schedulability guarantee. A new job is
// accepted at submission only if a complete schedule exists — against the
// believed completions of running jobs — in which *every* accepted job,
// including the newcomer, still meets its deadline per its estimate.
// Accepted jobs then execute in earliest-deadline order with conservative
// reservations, and are charged the price in effect at acceptance
// (submission). With exact estimates the guarantee is absolute (Set A
// reliability 100%); inaccurate estimates erode it like every other
// admission control in the paper.
//
// The guarantee does not survive failures: a failure victim is requeued
// for a restart in EDF order and may now miss its deadline, but acceptance
// is already recorded, so the job runs on and the miss counts against
// reliability.
type qops struct {
	spaceQueue
}

// NewQoPS returns the QoPS extension policy.
func NewQoPS(ctx *Context) Policy {
	q := &qops{}
	q.init(ctx, "QoPS", q.schedule)
	return q
}

func (q *qops) Submit(j *workload.Job) {
	if q.ctx.Model == economy.Commodity &&
		economy.BaseCharge(j.Estimate, q.ctx.PriceAt(float64(q.ctx.Engine.Now()))) > j.Budget {
		q.ctx.Collector.Rejected(j)
		return
	}
	if !q.feasible(j) {
		q.ctx.Collector.Rejected(j)
		return
	}
	q.ctx.Collector.Accepted(j)
	q.spaceQueue.Submit(j)
}

// feasible checks whether candidate can join the accepted set without
// breaking anyone's guarantee: it walks the EDF schedule of the queue plus
// the candidate over the current availability profile and reports whether
// every job's projected completion (per estimate) meets its deadline. The
// queue is already in EDF order — every append is followed by schedule's
// sort — so the candidate is planned at its stable upper bound, the place
// a stable sort of queue-plus-candidate would put it.
func (q *qops) feasible(candidate *workload.Job) bool {
	now := float64(q.ctx.Engine.Now())
	prof := q.runningProfile(now)
	placed := false
	for _, j := range q.queue {
		if !placed && edfLess(candidate, j) {
			if !meetsDeadline(&prof, now, candidate) {
				return false
			}
			placed = true
		}
		if !meetsDeadline(&prof, now, j) {
			return false
		}
	}
	return placed || meetsDeadline(&prof, now, candidate)
}

// meetsDeadline reserves j's earliest slot from now on prof and reports
// whether j, per its estimate, completes by its deadline there.
func meetsDeadline(prof *profile, now float64, j *workload.Job) bool {
	t := prof.earliest(now, j.Estimate, j.Procs)
	if t+j.Estimate > j.AbsDeadline() {
		return false
	}
	return prof.reserve(t, j.Estimate, j.Procs) == nil
}

// schedule starts every queued job whose planned slot is "now", in EDF
// order with conservative reservations for the rest.
func (q *qops) schedule() {
	sortJobs(q.queue, edfLess)
	now := float64(q.ctx.Engine.Now())
	prof := q.runningProfile(now)
	kept := q.queue[:0]
	for _, j := range q.queue {
		t := prof.earliest(now, j.Estimate, j.Procs)
		if t <= now && q.cluster.CanStart(j.Procs) {
			q.start(j)
			if err := prof.reserve(now, j.Estimate, j.Procs); err != nil {
				panic(err)
			}
			continue
		}
		if err := prof.reserve(t, j.Estimate, j.Procs); err != nil {
			panic(err)
		}
		kept = append(kept, j)
	}
	q.queue = kept
}
