package scheduler

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/economy"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/policy_digests.golden")

// digestPolicies lists every space-shared policy constructor the digests
// pin, including the tuned FirstReward (α≠1 exercises the reward's
// opportunity-cost term, which the paper's α = 1 zeroes out).
func digestPolicies() []struct {
	name    string
	factory Factory
} {
	return []struct {
		name    string
		factory Factory
	}{
		{"FCFS-BF", NewFCFSBF},
		{"SJF-BF", NewSJFBF},
		{"EDF-BF", NewEDFBF},
		{"FCFS-BF-noAC", NewFCFSNoAC},
		{"EDF-BF-noAC", NewEDFNoAC},
		{"FCFS-CONS", NewFCFSConservative},
		{"QoPS", NewQoPS},
		{"FirstReward", NewFirstReward},
		{"FirstReward-bounded", NewFirstRewardBounded},
		{"FirstReward-tuned", func(ctx *Context) Policy { return NewFirstRewardTuned(ctx, 0.5, 0.02, 10) }},
	}
}

// digestPeak is a time-of-day tariff whose peak window falls inside the
// adversarial streams' span (about five hours), so charging a job at its
// start instead of its submission — or the reverse — moves its utility.
var digestPeak = economy.TimeOfDayPrice{Base: 1, PeakFactor: 4, PeakStartHour: 1, PeakEndHour: 3}

// policyDigest runs one case and hashes the exact bits of every outcome
// (flags, start, finish, utility, in submission order) plus the report's
// JSON encoding.
func policyDigest(t *testing.T, factory Factory, jobs []*workload.Job, cfg RunConfig) string {
	t.Helper()
	var outcomes func() []byte
	wrapped := func(ctx *Context) Policy {
		col := ctx.Collector
		outcomes = func() []byte {
			var buf []byte
			for _, o := range col.Outcomes() {
				flags := 0
				for i, b := range []bool{o.Accepted, o.Rejected, o.Started, o.Finished, o.Killed} {
					if b {
						flags |= 1 << i
					}
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Job.ID))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(flags))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.StartTime))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.FinishTime))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Utility))
			}
			return buf
		}
		return factory(ctx)
	}
	rep, err := Run(jobs, wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(outcomes())
	h.Write(repJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSpaceSharedPolicyDigests pins every space-shared policy bit for bit
// over adversarial streams on 16 nodes: each constructor × {commodity, bid}
// × faults {none, high} × {flat, peak tariff} × 3 seeds. Output rounding
// (as in the outcome CSV) would hide low-order drift, so the digest reads
// float bits directly. Regenerate deliberately with
//
//	go test ./internal/scheduler -run TestSpaceSharedPolicyDigests -update
func TestSpaceSharedPolicyDigests(t *testing.T) {
	const nodes = 16
	var got []string
	for _, seed := range []int64{11, 12, 13} {
		jobs := adversarialStream(seed, 200, nodes)
		for _, p := range digestPolicies() {
			for _, model := range []economy.Model{economy.Commodity, economy.BidBased} {
				for _, faulted := range []bool{false, true} {
					for _, peak := range []bool{false, true} {
						cfg := RunConfig{Nodes: nodes, Model: model, BasePrice: 1}
						fault, tariff := "none", "flat"
						if faulted {
							cfg.Faults = highFaults(jobs, seed)
							fault = "high"
						}
						if peak {
							cfg.Prices = digestPeak
							tariff = "peak"
						}
						name := fmt.Sprintf("%s/%s/faults=%s/%s/seed=%d", p.name, model, fault, tariff, seed)
						d := policyDigest(t, p.factory, workload.CloneAll(jobs), cfg)
						got = append(got, name+" "+d)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "policy_digests.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d digests in %s", len(got), path)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d (regenerate with -update if intended)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// The peak tariff must actually reach the digests: a charge-instant slip
// that flat pricing would hide has to move at least one commodity case.
// The first seven policies price a commodity charge; FirstReward earns its
// bid under either model.
func TestDigestPeakTariffBites(t *testing.T) {
	jobs := adversarialStream(11, 200, 16)
	flat := RunConfig{Nodes: 16, Model: economy.Commodity, BasePrice: 1}
	peak := flat
	peak.Prices = digestPeak
	for _, p := range digestPolicies()[:7] {
		if policyDigest(t, p.factory, workload.CloneAll(jobs), flat) == policyDigest(t, p.factory, workload.CloneAll(jobs), peak) {
			t.Errorf("%s: peak tariff left the commodity digest unchanged", p.name)
		}
	}
}
