package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/streamrisk"
)

// fieldBits flattens a struct of ints, float64s and nested structs or
// arrays into (path, bits) pairs: a float64 as its IEEE bits, an integer as
// its value. Comparing bits makes "equal" mean bit-identical, with no
// tolerance.
func fieldBits(prefix string, v reflect.Value, out *[]fieldBit) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			fieldBits(prefix+"."+t.Field(i).Name, v.Field(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fieldBits(fmt.Sprintf("%s[%d]", prefix, i), v.Index(i), out)
		}
	case reflect.Float64:
		*out = append(*out, fieldBit{prefix, math.Float64bits(v.Float())})
	case reflect.Int, reflect.Int64:
		*out = append(*out, fieldBit{prefix, uint64(v.Int())})
	default:
		panic(fmt.Sprintf("fieldBits: %s has unsupported kind %s", prefix, v.Kind()))
	}
}

// fieldBit is one flattened field.
type fieldBit struct {
	path string
	bits uint64
}

// bitsOf flattens any struct value.
func bitsOf(x any) []fieldBit {
	var out []fieldBit
	fieldBits("", reflect.ValueOf(x), &out)
	return out
}

// sameBits returns nil when want and got are bit-identical, else an error
// naming where and the first differing field.
func sameBits(where string, want, got any) error {
	w, g := bitsOf(want), bitsOf(got)
	if len(w) != len(g) {
		return fmt.Errorf("%s: field count %d != %d", where, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			return fmt.Errorf("%s: field %s differs (got bits %#x, want %#x)", where, w[i].path, g[i].bits, w[i].bits)
		}
	}
	return nil
}

// cellName labels one cell for error messages.
func cellName(sc experiment.ScenarioResult, vi int, policy string) string {
	return fmt.Sprintf("cell %s[%d]=%g/%s", sc.Name, vi, sc.Values[vi], policy)
}

// checkComplete verifies every cell of the grid is present and conserves
// its jobs: all jobs submitted, every one settled at most once per count.
func checkComplete(res *experiment.Results, jobs int) error {
	if len(res.Scenarios) != len(experiment.Scenarios()) {
		return fmt.Errorf("suite has %d scenarios, want %d", len(res.Scenarios), len(experiment.Scenarios()))
	}
	for _, sc := range res.Scenarios {
		for vi := range sc.Values {
			for _, p := range res.Policies {
				r, ok := sc.Reports[vi][p]
				if !ok {
					return fmt.Errorf("%s: missing report", cellName(sc, vi, p))
				}
				if err := conserved(cellName(sc, vi, p), r, jobs); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// conserved checks one report's job accounting.
func conserved(where string, r metrics.Report, jobs int) error {
	switch {
	case r.Submitted != jobs:
		return fmt.Errorf("%s: %d jobs submitted, want %d", where, r.Submitted, jobs)
	case r.Accepted < 0 || r.Accepted > r.Submitted:
		return fmt.Errorf("%s: %d accepted of %d submitted", where, r.Accepted, r.Submitted)
	case r.SLAFulfilled > r.Accepted, r.Killed > r.Accepted:
		return fmt.Errorf("%s: %d fulfilled and %d killed of %d accepted", where, r.SLAFulfilled, r.Killed, r.Accepted)
	case r.Finished > r.Submitted:
		return fmt.Errorf("%s: %d finished of %d submitted", where, r.Finished, r.Submitted)
	}
	return nil
}

// settledOnce checks the per-job outcomes of one simulation: every job
// appears once and is either accepted or rejected, never both or neither.
func settledOnce(where string, outcomes []*metrics.Outcome, jobs int) error {
	if len(outcomes) != jobs {
		return fmt.Errorf("%s: %d outcomes for %d jobs", where, len(outcomes), jobs)
	}
	seen := make(map[int]bool, len(outcomes))
	for _, o := range outcomes {
		if seen[o.Job.ID] {
			return fmt.Errorf("%s: job %d settled twice", where, o.Job.ID)
		}
		seen[o.Job.ID] = true
		if o.Accepted == o.Rejected {
			return fmt.Errorf("%s: job %d accepted=%v rejected=%v", where, o.Job.ID, o.Accepted, o.Rejected)
		}
	}
	return nil
}

// sameResults compares two suite results cell by cell, bit for bit.
func sameResults(where string, want, got *experiment.Results) error {
	if len(want.Scenarios) != len(got.Scenarios) || len(want.Policies) != len(got.Policies) {
		return fmt.Errorf("%s: grid shape differs", where)
	}
	for si, sc := range want.Scenarios {
		gsc := got.Scenarios[si]
		if gsc.Name != sc.Name || len(gsc.Values) != len(sc.Values) {
			return fmt.Errorf("%s: scenario %d differs", where, si)
		}
		for vi := range sc.Values {
			if math.Float64bits(gsc.Values[vi]) != math.Float64bits(sc.Values[vi]) {
				return fmt.Errorf("%s: %s value %d differs", where, sc.Name, vi)
			}
			for _, p := range want.Policies {
				if err := sameBits(where+": "+cellName(sc, vi, p), sc.Reports[vi][p], gsc.Reports[vi][p]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// digestResults is a SHA-256 over every cell report's bits in grid order.
// Risk analysis and plot output are not covered.
func digestResults(res *experiment.Results) string {
	h := sha256.New()
	for _, sc := range res.Scenarios {
		for vi := range sc.Values {
			for _, p := range res.Policies {
				fmt.Fprintf(h, "%s|%d|%s", sc.Name, vi, p)
				for _, f := range bitsOf(sc.Reports[vi][p]) {
					fmt.Fprintf(h, "|%s=%x", f.path, f.bits)
				}
				h.Write([]byte{'\n'})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cumulative is the part of a streamed Scores the live engine and the
// offline recomputation must agree on bit for bit: counts, sums, ratios
// and the cumulative points. The sliding window is excluded.
type cumulative struct {
	Events, Accepted, Rejected, Finals                  int64
	QuoteSum, BudgetSum, UtilitySum, SettledBudgetSum   float64
	SubmittedSum, FulfilledSum, KilledSum               int64
	AcceptanceRatio, BudgetRatio, UtilityRatio, DeadRat float64
	Cumulative                                          [streamrisk.NumObjectives][2]float64
	Integrated                                          [2]float64
}

func cumulativeOf(s streamrisk.Scores) cumulative {
	c := cumulative{
		Events: s.Events, Accepted: s.Accepted, Rejected: s.Rejected, Finals: s.Finals,
		QuoteSum: s.QuoteSum, BudgetSum: s.BudgetSum, UtilitySum: s.UtilitySum, SettledBudgetSum: s.SettledBudgetSum,
		SubmittedSum: s.SubmittedSum, FulfilledSum: s.FulfilledSum, KilledSum: s.KilledSum,
		AcceptanceRatio: s.AcceptanceRatio, BudgetRatio: s.BudgetRatio, UtilityRatio: s.UtilityRatio, DeadRat: s.DeadlineRatio,
		Integrated: [2]float64{s.Integrated.Performance, s.Integrated.Volatility},
	}
	for o := range s.Cumulative {
		c.Cumulative[o] = [2]float64{s.Cumulative[o].Performance, s.Cumulative[o].Volatility}
	}
	return c
}
