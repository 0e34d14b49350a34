package scheduler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sessionWorkload builds a small synthesized QoS workload shared by the
// session tests.
func sessionWorkload(t *testing.T, jobs int, seed int64) []*workload.Job {
	t.Helper()
	synth := workload.DefaultSynthConfig()
	synth.Jobs = jobs
	trace, err := workload.Generate(synth, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := qos.Synthesize(trace, qos.DefaultConfig(seed+1)); err != nil {
		t.Fatal(err)
	}
	return trace
}

// The determinism bridge at the driver level: stepping a session one
// submission at a time — with mid-run Snapshot probes — must produce a
// report byte-identical to the batch Run of the same job stream, for every
// Table V policy under every model it is evaluated under, with and without
// fault injection.
func TestSessionMatchesBatchRun(t *testing.T) {
	for _, intensity := range []faults.Intensity{faults.None, faults.High} {
		jobs := sessionWorkload(t, 150, 11)
		horizon := faults.JobsHorizon(jobs)
		for _, spec := range Specs() {
			for _, m := range spec.Models {
				cfg := RunConfig{Nodes: 128, Model: m, BasePrice: economy.DefaultBasePrice}
				if intensity.Enabled() {
					f := intensity.Config(7, horizon)
					cfg.Faults = &f
				}
				batch, err := Run(workload.CloneAll(jobs), spec.New, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: batch: %v", spec.Name, m, intensity, err)
				}
				s, err := NewSession(spec.New, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: session: %v", spec.Name, m, intensity, err)
				}
				for i, j := range workload.CloneAll(jobs) {
					if _, err := s.Submit(j); err != nil {
						t.Fatalf("%s/%s/%s: submit %d: %v", spec.Name, m, intensity, i, err)
					}
					if i%37 == 0 {
						s.Snapshot() // probing mid-run must not perturb the simulation
					}
				}
				stepped := s.Finalize()
				bb, err := json.Marshal(batch)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := json.Marshal(stepped)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bb, sb) {
					t.Errorf("%s/%s/faults=%s: stepped session diverged from batch run:\nbatch:   %s\nstepped: %s",
						spec.Name, m, intensity, bb, sb)
				}
				if !s.Finalized() {
					t.Errorf("%s: session not finalized after Finalize", spec.Name)
				}
				if again := s.Finalize(); again != stepped {
					t.Errorf("%s: Finalize not idempotent", spec.Name)
				}
			}
		}
	}
}

// Immediate-decision policies settle at submission; generous admission
// control leaves the decision pending.
func TestSessionDecisions(t *testing.T) {
	job := func(id int, submit, runtime, deadline, budget float64) *workload.Job {
		return &workload.Job{ID: id, Submit: submit, Runtime: runtime, Estimate: runtime,
			Procs: 1, Deadline: deadline, Budget: budget, PenaltyRate: 0.01}
	}
	cfg := RunConfig{Nodes: 4, Model: economy.Commodity, BasePrice: 1}

	t.Run("libra-accepts-and-rejects-at-submission", func(t *testing.T) {
		s, err := NewSession(NewLibra, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Submit(job(1, 0, 100, 200, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if d.Admission != AdmissionAccepted {
			t.Fatalf("feasible job: admission %v, want accepted", d.Admission)
		}
		wantQuote := economy.LibraCharge(100, 200, economy.DefaultGamma, economy.DefaultDelta)
		if d.Quote != wantQuote {
			t.Fatalf("quote %v, want the recorded Libra charge %v", d.Quote, wantQuote)
		}
		// Over-budget: quoted charge exceeds the budget, rejected.
		d, err = s.Submit(job(2, 10, 100, 200, 1))
		if err != nil {
			t.Fatal(err)
		}
		if d.Admission != AdmissionRejected {
			t.Fatalf("over-budget job: admission %v, want rejected", d.Admission)
		}
		if d.Quote <= 1 {
			t.Fatalf("rejected job's quote %v should exceed its budget 1", d.Quote)
		}
	})

	t.Run("backfill-defers-the-decision", func(t *testing.T) {
		s, err := NewSession(NewFCFSBF, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the machine so the second submission has to queue.
		if d, _ := s.Submit(&workload.Job{ID: 1, Submit: 0, Runtime: 100, Estimate: 100,
			Procs: 4, Deadline: 500, Budget: 1000}); d.Admission != AdmissionAccepted {
			t.Fatalf("first job should start immediately, got %v", d.Admission)
		}
		d, err := s.Submit(job(2, 1, 50, 400, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if d.Admission != AdmissionPending {
			t.Fatalf("queued job: admission %v, want queued", d.Admission)
		}
		if d.Quote != economy.BaseCharge(50, 1) {
			t.Fatalf("quote %v, want base charge %v", d.Quote, economy.BaseCharge(50, 1))
		}
		rep := s.Finalize()
		if rep.Submitted != 2 || rep.Accepted != 2 {
			t.Fatalf("final report: %+v", rep)
		}
	})

	t.Run("bid-model-quotes-the-bid", func(t *testing.T) {
		s, err := NewSession(NewFirstReward, RunConfig{Nodes: 4, Model: economy.BidBased, BasePrice: 1})
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Submit(job(1, 0, 100, 400, 123.5))
		if err != nil {
			t.Fatal(err)
		}
		if d.Quote != 123.5 {
			t.Fatalf("bid-based quote %v, want the bid 123.5", d.Quote)
		}
	})
}

func TestSessionSubmitValidation(t *testing.T) {
	cfg := RunConfig{Nodes: 4, Model: economy.Commodity, BasePrice: 1}
	s, err := NewSession(NewLibra, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ok := &workload.Job{ID: 1, Submit: 100, Runtime: 10, Estimate: 10, Procs: 1, Deadline: 50, Budget: 100}
	if _, err := s.Submit(ok); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		job  *workload.Job
	}{
		{"no QoS", &workload.Job{ID: 2, Submit: 100, Runtime: 10, Estimate: 10, Procs: 1}},
		{"out of order", &workload.Job{ID: 3, Submit: 50, Runtime: 10, Estimate: 10, Procs: 1, Deadline: 50, Budget: 100}},
		{"too wide", &workload.Job{ID: 4, Submit: 100, Runtime: 10, Estimate: 10, Procs: 5, Deadline: 50, Budget: 100}},
		{"invalid shape", &workload.Job{ID: 5, Submit: 100, Runtime: 0, Estimate: 10, Procs: 1, Deadline: 50, Budget: 100}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.job); err == nil {
			t.Errorf("%s: submission accepted, want error", c.name)
		}
	}
	s.Finalize()
	if _, err := s.Submit(ok); err == nil {
		t.Error("submission after Finalize accepted, want error")
	}
	if _, err := NewSession(NewLibra, RunConfig{Nodes: 0, Model: economy.Commodity, BasePrice: 1}); err == nil {
		t.Error("NewSession with zero nodes succeeded")
	}
	f := faults.Intensity(faults.High).Config(1, 1000)
	if _, err := NewSession(NewFCFSBF, RunConfig{Nodes: 0, Model: economy.Commodity, BasePrice: 1, Faults: &f}); err == nil {
		t.Error("NewSession with invalid config and faults succeeded")
	}
}

// orderProbe is a policy that records the order in which the session hands
// it arrivals, injected faults, and its own completion events.
type orderProbe struct {
	ctx *Context
	// completeAt is when job 1's completion event is due.
	completeAt float64
	log        []string
}

func (p *orderProbe) Name() string { return "order-probe" }

func (p *orderProbe) Submit(j *workload.Job) {
	p.log = append(p.log, fmt.Sprintf("arrive %d@%g", j.ID, p.ctx.Engine.Now()))
	if j.ID == 1 {
		p.ctx.Engine.MustSchedule(sim.Time(p.completeAt), func() {
			p.log = append(p.log, fmt.Sprintf("complete 1@%g", p.ctx.Engine.Now()))
		})
	}
}

func (p *orderProbe) Drain() {}

func (p *orderProbe) NodeDown(node int) {
	p.log = append(p.log, fmt.Sprintf("fail %d@%g", node, p.ctx.Engine.Now()))
}

func (p *orderProbe) NodeUp(node int) {
	p.log = append(p.log, fmt.Sprintf("repair %d@%g", node, p.ctx.Engine.Now()))
}

// At one instant a session dispatches the arrival first, then the injected
// fault, then the completion: a job submitted as a node fails and another
// job completes sees the machine as it was, and the failure lands before
// the completion can release the node.
func TestSessionOrdersArrivalFaultCompletionAtOneInstant(t *testing.T) {
	fc := faults.Config{Seed: 4, MTBF: 100, MTTR: 10, Horizon: 1000}
	events, err := faults.Generate(fc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 || !events[0].Down {
		t.Fatalf("fault schedule %+v has no leading failure and repair", events)
	}
	tf, tr := events[0].Time, events[1].Time
	probe := &orderProbe{completeAt: tf}
	s, err := NewSession(func(ctx *Context) Policy {
		probe.ctx = ctx
		return probe
	}, RunConfig{Nodes: 1, Model: economy.Commodity, BasePrice: 1, Faults: &fc})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*workload.Job{
		{ID: 1, Submit: 0, Runtime: tf, Estimate: tf, Procs: 1, Deadline: 2 * tf, Budget: 1e9},
		{ID: 2, Submit: tf, Runtime: 1, Estimate: 1, Procs: 1, Deadline: 2 * tf, Budget: 1e9},
	}
	for _, j := range jobs {
		if _, err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.Finalize()
	want := []string{
		"arrive 1@0",
		fmt.Sprintf("arrive 2@%g", tf),
		fmt.Sprintf("fail 0@%g", tf),
		fmt.Sprintf("complete 1@%g", tf),
		fmt.Sprintf("repair 0@%g", tr),
	}
	if len(probe.log) < len(want) {
		t.Fatalf("dispatch log %q, want it to start %q", probe.log, want)
	}
	if got := probe.log[:len(want)]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order\n got %q\nwant %q", got, want)
	}
}
