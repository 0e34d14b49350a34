package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/streamrisk"
)

// smallSuite runs one scenario of a reduced suite.
func smallSuite(t *testing.T) *experiment.Results {
	t.Helper()
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs, cfg.Nodes = 150, 128
	cfg.ScenarioFilter = []string{"workload"}
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cloneResults deep-copies the report grid.
func cloneResults(r *experiment.Results) *experiment.Results {
	out := *r
	out.Scenarios = nil
	for _, sc := range r.Scenarios {
		c := sc
		c.Reports = make([]map[string]metrics.Report, len(sc.Reports))
		for vi, m := range sc.Reports {
			c.Reports[vi] = map[string]metrics.Report{}
			for k, v := range m {
				c.Reports[vi][k] = v
			}
		}
		out.Scenarios = append(out.Scenarios, c)
	}
	return &out
}

func TestCellReportBitFlipIsCaught(t *testing.T) {
	res := smallSuite(t)
	if err := sameResults("identity", res, cloneResults(res)); err != nil {
		t.Fatal(err)
	}
	bad := cloneResults(res)
	r := bad.Scenarios[0].Reports[2]["Libra"]
	r.Wait = math.Float64frombits(math.Float64bits(r.Wait) ^ 1)
	bad.Scenarios[0].Reports[2]["Libra"] = r
	err := sameResults("planted", res, bad)
	if err == nil || !strings.Contains(err.Error(), "workload[2]") || !strings.Contains(err.Error(), "/Libra") || !strings.Contains(err.Error(), ".Wait") {
		t.Fatalf("error %v, want the cell and field named", err)
	}
	if digestResults(res) == digestResults(bad) {
		t.Fatal("digest blind to a flipped bit")
	}
}

func TestConservationIsChecked(t *testing.T) {
	res := smallSuite(t)
	if err := checkComplete(res, 150); err == nil || !strings.Contains(err.Error(), "scenarios") {
		t.Fatalf("a one-scenario suite passed the completeness check: %v", err)
	}
	r := res.Scenarios[0].Reports[0]["EDF-BF"]
	if err := conserved("ok", r, 150); err != nil {
		t.Fatal(err)
	}
	r.Accepted = r.Submitted + 1
	if err := conserved("planted", r, 150); err == nil || !strings.Contains(err.Error(), "accepted") {
		t.Fatalf("error %v, want over-acceptance named", err)
	}
}

// liveSession drives one short session through a self-hosted fleet and
// returns it with everything the run records: responses, final report,
// journal and the plane's streamed scores.
func liveSession(t *testing.T) *sess {
	t.Helper()
	f, err := bootFleet(newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	d := &driver{f: f, client: newGenClient(2)}
	defer d.client.CloseIdleConnections()
	plan, err := planSession(7, 4, 40) // k=4: Libra+$, which quotes its own prices
	if err != nil {
		t.Fatal(err)
	}
	s := &sess{plan: plan, jobs: 40}
	for !s.done && d.err() == nil {
		d.step(s)
	}
	if err := d.err(); err != nil {
		t.Fatal(err)
	}
	return s
}

func check(s *sess) error {
	return checkSession(s, streamrisk.NewEngine(streamrisk.Config{}), &replayTimes{policy: map[string]*policyReplay{}})
}

func TestSessionOraclesCatchCorruption(t *testing.T) {
	live := liveSession(t)
	if live.plan.policy != "Libra+$" {
		t.Fatalf("plan policy %s", live.plan.policy)
	}
	if err := check(live); err != nil {
		t.Fatalf("clean session fails: %v", err)
	}

	// One byte of the journal.
	s := *live
	s.journal = append([]byte(nil), live.journal...)
	i := strings.Index(string(s.journal), `"quote":`) + len(`"quote":`)
	s.journal[i] ^= 1
	if err := check(&s); err == nil || !strings.Contains(err.Error(), "journal line 2") {
		t.Errorf("journal byte: error %v, want the line named", err)
	}

	// One quote in the responses.
	s = *live
	s.resp = append(s.resp[:0:0], live.resp...)
	s.resp[5].Quote = math.Float64frombits(math.Float64bits(s.resp[5].Quote) ^ 1)
	if err := check(&s); err == nil || !strings.Contains(err.Error(), "quote") {
		t.Errorf("quote: error %v, want the quote named", err)
	}

	// One streamed score.
	s = *live
	sc := *live.scores
	sc.Cumulative[1].Volatility = math.Float64frombits(math.Float64bits(sc.Cumulative[1].Volatility) ^ 1)
	s.scores = &sc
	if err := check(&s); err == nil || !strings.Contains(err.Error(), "streamed scores") || !strings.Contains(err.Error(), "Cumulative[1]") {
		t.Errorf("streamed score: error %v, want the score named", err)
	}
}
