package scheduler

import (
	"fmt"
	"math"
)

// profile is a piecewise-constant availability timeline over future time:
// how many processors are expected to be free during each interval, given
// the believed completion times of running jobs and the reservations of
// queued jobs. Conservative backfilling plans every queued job against it.
type profile struct {
	// times are ascending breakpoints; avail[i] holds during
	// [times[i], times[i+1]) and avail[len-1] holds forever after.
	times []float64
	avail []int
	total int
}

// newProfile starts a timeline at now with the given free processors,
// rising to the full machine as nothing else is known yet.
func newProfile(now float64, total, freeNow int) profile {
	return profile{times: []float64{now}, avail: []int{freeNow}, total: total}
}

// segmentAt returns the index of the segment containing time t (t must be
// >= times[0]).
func (p *profile) segmentAt(t float64) int {
	lo, hi := 0, len(p.times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.times[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// split ensures a breakpoint exists exactly at time t and returns its
// segment index.
func (p *profile) split(t float64) int {
	i := p.segmentAt(t)
	if p.times[i] == t {
		return i
	}
	p.times = append(p.times, 0)
	p.avail = append(p.avail, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.avail[i+2:], p.avail[i+1:])
	p.times[i+1] = t
	p.avail[i+1] = p.avail[i]
	return i + 1
}

// addRelease adds procs to availability from time t onward (a running job
// believed to finish at t).
func (p *profile) addRelease(t float64, procs int) {
	if t < p.times[0] {
		t = p.times[0]
	}
	i := p.split(t)
	for ; i < len(p.avail); i++ {
		p.avail[i] += procs
	}
}

// reserve subtracts procs over [start, start+dur). It returns an error if
// the reservation would overdraw the profile — callers must have found the
// slot with earliest first.
func (p *profile) reserve(start, dur float64, procs int) error {
	if dur <= 0 {
		return nil
	}
	end := start + dur
	i := p.split(start)
	j := p.split(end) // availability reverts from end onward
	for k := i; k < j; k++ {
		if p.avail[k] < procs {
			return fmt.Errorf("scheduler: reservation overdraws profile at %v (%d < %d)", p.times[k], p.avail[k], procs)
		}
		p.avail[k] -= procs
	}
	return nil
}

// earliest returns the earliest start time >= from at which procs
// processors stay available for dur seconds.
func (p *profile) earliest(from, dur float64, procs int) float64 {
	if procs > p.total {
		return math.Inf(1)
	}
	start := math.Max(from, p.times[0])
	i := p.segmentAt(start)
	for {
		// Candidate start: max(start, beginning of segment i).
		t := math.Max(start, p.times[i])
		if p.avail[i] >= procs && p.fits(t, dur, procs, i) {
			return t
		}
		i++
		if i >= len(p.times) {
			// Beyond the last breakpoint availability is constant; if it
			// did not fit there, nothing ever will. The final segment was
			// already checked, so reaching here means insufficient procs
			// forever.
			return math.Inf(1)
		}
	}
}

// fits reports whether procs stay available over [t, t+dur) given t lies
// in segment i.
func (p *profile) fits(t, dur float64, procs, i int) bool {
	end := t + dur
	for k := i; k < len(p.times); k++ {
		if k > i && p.times[k] >= end {
			return true
		}
		if p.avail[k] < procs {
			return false
		}
	}
	return true // last segment extends forever
}
