package main

import (
	"time"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// submitClock accumulates the wall time one policy instance spends in
// Submit. A policy instance runs on one goroutine, so no locking.
type submitClock struct {
	n     int64
	total time.Duration
}

// timedPolicy times every Submit of the wrapped policy. Scheduler.Session
// type-asserts four optional interfaces on the policy it holds; the
// wrapper types below forward exactly the set the inner policy has, so a
// wrapped policy behaves bit for bit like the bare one.
type timedPolicy struct {
	inner scheduler.Policy
	clock submitClock
}

func (p *timedPolicy) Name() string { return p.inner.Name() }
func (p *timedPolicy) Drain()       { p.inner.Drain() }

// Submit forwards and times one admission.
func (p *timedPolicy) Submit(j *workload.Job) {
	start := time.Now() //lint:allow wallclock — measures real admission cost; simulation time is untouched
	p.inner.Submit(j)
	p.clock.total += time.Since(start) //lint:allow wallclock — measures real admission cost; simulation time is untouched
	p.clock.n++
}

// timedUAF forwards UtilizationReporter, AvailabilityEstimator and
// FaultInjectable: the set every space-shared and Libra-family policy has.
type timedUAF struct{ *timedPolicy }

func (p timedUAF) Utilization() float64 {
	return p.inner.(scheduler.UtilizationReporter).Utilization()
}

func (p timedUAF) EarliestAvailable(procs int) (float64, error) {
	return p.inner.(scheduler.AvailabilityEstimator).EarliestAvailable(procs)
}

func (p timedUAF) NodeDown(node int) { p.inner.(scheduler.FaultInjectable).NodeDown(node) }
func (p timedUAF) NodeUp(node int)   { p.inner.(scheduler.FaultInjectable).NodeUp(node) }

// timedUAFQ adds Quoter (the Libra family's own pricing functions).
type timedUAFQ struct{ timedUAF }

func (p timedUAFQ) Quote(j *workload.Job) float64 {
	return p.inner.(scheduler.Quoter).Quote(j)
}

// wrapPolicy returns the timing wrapper matching p's interface set, or p
// itself and a nil handle when no wrapper type matches; callers fail the
// run on a nil handle rather than report a partial decomposition.
func wrapPolicy(p scheduler.Policy) (scheduler.Policy, *timedPolicy) {
	_, u := p.(scheduler.UtilizationReporter)
	_, a := p.(scheduler.AvailabilityEstimator)
	_, f := p.(scheduler.FaultInjectable)
	_, q := p.(scheduler.Quoter)
	tp := &timedPolicy{inner: p}
	switch {
	case !u && !a && !f && !q:
		return tp, tp
	case u && a && f && !q:
		return timedUAF{tp}, tp
	case u && a && f && q:
		return timedUAFQ{timedUAF{tp}}, tp
	}
	return p, nil
}

// timedFactory wraps a factory so each policy it builds is timed; onNew
// sees the run context and the timing handle (nil when unwrapped).
func timedFactory(inner scheduler.Factory, onNew func(ctx *scheduler.Context, tp *timedPolicy)) scheduler.Factory {
	return func(ctx *scheduler.Context) scheduler.Policy {
		p, tp := wrapPolicy(inner(ctx))
		if onNew != nil {
			onNew(ctx, tp)
		}
		return p
	}
}
