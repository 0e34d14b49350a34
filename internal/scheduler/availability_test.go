package scheduler

import (
	"math"
	"testing"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/workload"
)

// Every Table V policy must implement AvailabilityEstimator: the federation
// meta-broker ranks clusters with it, so a policy without an estimate would
// silently degrade routing to submission-time ties.
func TestEveryPolicyEstimatesAvailability(t *testing.T) {
	for _, spec := range Specs() {
		s, err := NewSession(spec.New, RunConfig{Nodes: 16, Model: spec.Models[0], BasePrice: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.policy.(AvailabilityEstimator); !ok {
			t.Errorf("%s does not implement AvailabilityEstimator", spec.Name)
		}
		at, err := s.EarliestAvailable(16)
		if err != nil {
			t.Errorf("%s: EarliestAvailable: %v", spec.Name, err)
		}
		if at != 0 {
			t.Errorf("%s: idle machine available at %v, want 0", spec.Name, at)
		}
		if _, err := s.EarliestAvailable(17); err == nil {
			t.Errorf("%s: no error for width beyond the machine", spec.Name)
		}
		if _, err := s.EarliestAvailable(0); err == nil {
			t.Errorf("%s: no error for zero width", spec.Name)
		}
	}
}

// An occupied space-shared machine estimates availability from its running
// set; a time-shared machine squeezes share and is always available now.
func TestEarliestAvailableUnderLoad(t *testing.T) {
	jobs := sessionWorkload(t, 40, 3)
	for _, spec := range []string{"FCFS-BF", "Libra"} {
		sp, err := SpecByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(sp.New, RunConfig{Nodes: 4, Model: economy.Commodity, BasePrice: 1})
		if err != nil {
			t.Fatal(err)
		}
		saturated := false
		for _, j := range workload.CloneAll(jobs) {
			if j.Procs > 4 {
				continue
			}
			if _, err := s.SubmitQuoteless(j); err != nil {
				t.Fatal(err)
			}
			at, err := s.EarliestAvailable(4)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(at, 1) {
				t.Fatalf("%s: +Inf availability without faults", spec)
			}
			if at > s.Now() {
				saturated = true
				if spec == "Libra" {
					t.Fatalf("Libra: time-shared machine reported future availability %v at %v", at, s.Now())
				}
			}
			if at < s.Now() {
				t.Fatalf("%s: availability %v in the past (now %v)", spec, at, s.Now())
			}
		}
		if spec == "FCFS-BF" && !saturated {
			t.Fatalf("FCFS-BF: workload never saturated the 4-node machine; test is vacuous")
		}
	}
}

// A machine fault-shrunken below a job's width answers +Inf — the signal
// that keeps the broker from routing a job to a cluster that can never fit
// it until a repair.
func TestEarliestAvailableDownShrunken(t *testing.T) {
	for _, name := range []string{"FCFS-BF", "Libra"} {
		sp, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(sp.New, RunConfig{Nodes: 2, Model: economy.Commodity, BasePrice: 1})
		if err != nil {
			t.Fatal(err)
		}
		fi := s.policy.(FaultInjectable)
		fi.NodeDown(0)
		at, err := s.EarliestAvailable(2)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(at, 1) {
			t.Errorf("%s: shrunken machine availability %v, want +Inf", name, at)
		}
		fi.NodeUp(0)
		if at, _ := s.EarliestAvailable(2); math.IsInf(at, 1) {
			t.Errorf("%s: repaired machine still +Inf", name)
		}
	}
}

// QuoteFor prices without submitting: probing a quote must not perturb the
// simulation, and for an accepted job it must equal the quote Submit
// returns (the Quoter contract, extended to every policy via the session's
// base-charge fallback).
func TestQuoteForMatchesSubmitQuote(t *testing.T) {
	jobs := sessionWorkload(t, 60, 5)
	for _, spec := range Specs() {
		for _, m := range spec.Models {
			probe, err := NewSession(spec.New, RunConfig{Nodes: 128, Model: m, BasePrice: economy.DefaultBasePrice})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range workload.CloneAll(jobs) {
				probe.AdvanceTo(j.Submit)
				quoted := probe.QuoteFor(j)
				d, err := probe.Submit(j)
				if err != nil {
					t.Fatal(err)
				}
				if d.Admission == AdmissionAccepted && d.Quote != quoted {
					t.Fatalf("%s/%s: pre-submission quote %v != decision quote %v for accepted job %d",
						spec.Name, m, quoted, d.Quote, j.ID)
				}
			}
		}
	}
}

// AdvanceTo dispatches pending events without changing any outcome byte:
// a session advanced to each submission instant before submitting must
// finalize bit-identically to one that never advances explicitly, including
// under fault injection (whose events AdvanceTo brings due).
func TestAdvanceToPreservesOutcomes(t *testing.T) {
	// run submits the jobs to one session advanced to each submission
	// instant first and to one that is not, and compares the reports.
	run := func(name string, factory Factory, cfg RunConfig, jobs []*workload.Job) {
		t.Helper()
		plain, err := NewSession(factory, cfg)
		if err != nil {
			t.Fatal(err)
		}
		advanced, err := NewSession(factory, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range workload.CloneAll(jobs) {
			if _, err := plain.SubmitQuoteless(j); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range workload.CloneAll(jobs) {
			advanced.AdvanceTo(j.Submit)
			advanced.AdvanceTo(j.Submit - 1) // past times are a no-op
			if _, err := advanced.SubmitQuoteless(j); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := plain.Finalize(), advanced.Finalize(); a != b {
			t.Errorf("%s: AdvanceTo changed the final report:\nplain:    %+v\nadvanced: %+v", name, a, b)
		}
		advanced.AdvanceTo(math.MaxFloat64) // finalized session: no-op, must not panic
	}

	var jobs []*workload.Job
	for _, j := range sessionWorkload(t, 120, 9) {
		if j.Procs <= 32 {
			jobs = append(jobs, j)
		}
	}
	f := faults.High.Config(3, faults.JobsHorizon(jobs))
	for _, spec := range Specs() {
		run(spec.Name, spec.New, RunConfig{Nodes: 32, Model: spec.Models[0], BasePrice: 1, Faults: &f}, jobs)
	}

	// A time tie: job 1's completion falls due at job 2's submit instant.
	// The arrival comes first there, so on one node Libra sees job 1 still
	// running and cannot fit job 2 by its deadline. Advancing to the
	// instant must not complete job 1 ahead of the arrival.
	tie := []*workload.Job{
		{ID: 1, Submit: 0, Runtime: 10, Estimate: 10, Procs: 1, Deadline: 10, Budget: 1000},
		{ID: 2, Submit: 10, Runtime: 5, Estimate: 5, Procs: 1, Deadline: 10, Budget: 1000},
	}
	run("Libra at a time tie", NewLibra, RunConfig{Nodes: 1, Model: economy.Commodity, BasePrice: 1}, tie)
}
