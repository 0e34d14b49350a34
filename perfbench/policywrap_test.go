package main

import (
	"math"
	"testing"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// interfaceSet lists which of the four optional interfaces scheduler.Session
// type-asserts a policy implements.
func interfaceSet(p scheduler.Policy) [4]bool {
	_, u := p.(scheduler.UtilizationReporter)
	_, f := p.(scheduler.FaultInjectable)
	_, q := p.(scheduler.Quoter)
	_, a := p.(scheduler.AvailabilityEstimator)
	return [4]bool{u, f, q, a}
}

func testContext(m economy.Model) *scheduler.Context {
	return &scheduler.Context{Engine: sim.NewEngine(), Collector: metrics.NewCollector(), Model: m, Nodes: 16, BasePrice: economy.DefaultBasePrice}
}

// TestWrapperKeepsInterfaceSet: every Table V policy, wrapped, implements
// exactly the optional interfaces it does bare.
func TestWrapperKeepsInterfaceSet(t *testing.T) {
	for _, spec := range scheduler.Specs() {
		m := spec.Models[0]
		bare := spec.New(testContext(m))
		wrapped, tp := wrapPolicy(spec.New(testContext(m)))
		if tp == nil {
			t.Errorf("%s: no wrapper type matches %v", spec.Name, interfaceSet(bare))
			continue
		}
		if got, want := interfaceSet(wrapped), interfaceSet(bare); got != want {
			t.Errorf("%s: wrapped interfaces %v, bare %v", spec.Name, got, want)
		}
	}
}

// TestWrapperForwardsBehaviour: reports under fault injection (which needs
// FaultInjectable and fills Utilization from UtilizationReporter), quotes
// (Quoter) and availability estimates (AvailabilityEstimator) are
// bit-identical with and without the wrapper.
func TestWrapperForwardsBehaviour(t *testing.T) {
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs, cfg.Nodes, cfg.Workers = 300, 128, 1
	cfg.FaultIntensity, cfg.FaultSeed = faults.High, 3
	p := experiment.DefaultParams(0)
	for _, spec := range scheduler.ForModel(economy.Commodity) {
		bare, err := experiment.RunCell(cfg, p, spec)
		if err != nil {
			t.Fatal(err)
		}
		ws := spec
		timed := 0
		ws.New = timedFactory(spec.New, func(_ *scheduler.Context, tp *timedPolicy) {
			if tp != nil {
				timed++
			}
		})
		wrapped, err := experiment.RunCell(cfg, p, ws)
		if err != nil {
			t.Fatalf("%s wrapped: %v", spec.Name, err)
		}
		if timed != 1 {
			t.Errorf("%s: %d timed policies, want 1", spec.Name, timed)
		}
		if err := sameBits(spec.Name, bare, wrapped); err != nil {
			t.Error(err)
		}
		if bare.Killed == 0 || bare.Utilization == 0 {
			t.Errorf("%s: faults or utilization did not reach the report (%+v)", spec.Name, bare)
		}
	}

	synth := workload.DefaultSynthConfig()
	synth.Jobs = 200
	jobs, err := workload.Generate(synth, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := qos.Synthesize(jobs, qos.DefaultConfig(6)); err != nil {
		t.Fatal(err)
	}
	rc := scheduler.RunConfig{Nodes: 128, Model: economy.Commodity, BasePrice: economy.DefaultBasePrice}
	for _, name := range []string{"Libra+$", "EDF-BF"} {
		spec, err := scheduler.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := scheduler.NewSession(spec.New, rc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scheduler.NewSession(timedFactory(spec.New, nil), rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			da, err := a.Submit(workload.CloneAll([]*workload.Job{j})[0])
			if err != nil {
				t.Fatal(err)
			}
			db, err := b.Submit(workload.CloneAll([]*workload.Job{j})[0])
			if err != nil {
				t.Fatal(err)
			}
			if da.Admission != db.Admission || math.Float64bits(da.Quote) != math.Float64bits(db.Quote) {
				t.Fatalf("%s job %d: bare %+v, wrapped %+v", name, j.ID, da, db)
			}
			ea, errA := a.EarliestAvailable(j.Procs)
			eb, errB := b.EarliestAvailable(j.Procs)
			if (errA == nil) != (errB == nil) || math.Float64bits(ea) != math.Float64bits(eb) {
				t.Fatalf("%s job %d: earliest available bare %v, wrapped %v", name, j.ID, ea, eb)
			}
		}
	}
}
