package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// replayTimes accumulates the decomposition of the worker's submit path
// measured on the offline replay: decode, session step (and within it the
// policy's Submit), journal append, streamrisk fold, and encode.
type replayTimes struct {
	decode, step, journal, fold, encode time.Duration
	submits                             int64
	events                              uint64
	killed                              int
	sessions                            int
	policy                              map[string]*policyReplay
}

// policyReplay is one policy's admission time on the replay.
type policyReplay struct {
	submit  time.Duration
	submits int64
}

// checkSession replays one session's exact request bodies offline through
// scheduler.NewSession and obs.SessionJournal, as the worker builds them,
// and checks the live run against it: each decision's admission, quote,
// job and virtual time; the final report; the journal, byte for byte; and
// the plane's streamed cumulative scores against streamrisk.OfflineScores
// of the journal, bit for bit. eng folds the replay's journal lines.
func checkSession(s *sess, eng *streamrisk.Engine, rt *replayTimes) error {
	where := fmt.Sprintf("session %s (%s, plan %d)", s.id, s.plan.policy, s.plan.k)
	spec, err := registry.PolicySpec(s.plan.policy, economy.Commodity)
	if err != nil {
		return err
	}
	var ctx *scheduler.Context
	var tp *timedPolicy
	factory := timedFactory(spec.New, func(c *scheduler.Context, t *timedPolicy) { ctx, tp = c, t })
	drv, err := scheduler.NewSession(factory, scheduler.RunConfig{Nodes: 128, Model: economy.Commodity, BasePrice: economy.DefaultBasePrice})
	if err != nil {
		return err
	}
	if tp == nil {
		return fmt.Errorf("%s: policy not wrapped for timing", where)
	}
	header := obs.SessionHeader{ID: s.id, Policy: spec.Name, Model: economy.Commodity.String(), Nodes: 128, BasePrice: economy.DefaultBasePrice}
	journal := obs.NewSessionJournal(header)
	header = journal.Header()
	for i, resp := range s.resp {
		t := clock()
		var req serve.SubmitJobRequest
		dec := json.NewDecoder(bytes.NewReader(s.plan.bodies[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return fmt.Errorf("%s: job %d body: %w", where, i, err)
		}
		rt.decode += since(t)
		j := &workload.Job{
			ID: req.ID, Submit: req.Submit, Runtime: req.Runtime, Estimate: req.Estimate,
			Procs: req.Procs, Deadline: req.Deadline, Budget: req.Budget, PenaltyRate: req.PenaltyRate,
			HighUrgency: req.HighUrgency,
		}
		t = clock()
		dcs, err := drv.Submit(j)
		rt.step += since(t)
		if err != nil {
			return fmt.Errorf("%s: replaying job %d: %w", where, j.ID, err)
		}
		switch {
		case resp.Job != j.ID:
			return fmt.Errorf("%s: decision %d is for job %d, replay job %d", where, i, resp.Job, j.ID)
		case resp.Admission != dcs.Admission.String():
			return fmt.Errorf("%s: job %d admission %q, replay %q", where, j.ID, resp.Admission, dcs.Admission)
		case math.Float64bits(resp.Quote) != math.Float64bits(dcs.Quote):
			return fmt.Errorf("%s: job %d quote %v, replay %v", where, j.ID, resp.Quote, dcs.Quote)
		case math.Float64bits(resp.Now) != math.Float64bits(drv.Now()):
			return fmt.Errorf("%s: job %d virtual time %v, replay %v", where, j.ID, resp.Now, drv.Now())
		}
		d := obs.SessionDecision{
			Job: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
			Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget, PenaltyRate: j.PenaltyRate,
			HighUrgency: j.HighUrgency, Admission: dcs.Admission.String(), Quote: dcs.Quote,
		}
		t = clock()
		journal.Decision(d)
		rt.journal += since(t)
		d.Kind = "decision"
		t = clock()
		eng.JournalDecision(header, d)
		rt.fold += since(t)
		t = clock()
		if err := json.NewEncoder(io.Discard).Encode(serve.SubmitJobResponse{Job: j.ID, Admission: d.Admission, Quote: d.Quote, Now: drv.Now()}); err != nil {
			return err
		}
		rt.encode += since(t)
	}
	rep := drv.Finalize()
	journal.Final(rep)
	eng.JournalFinal(header, rep)
	if err := sameBits(where+": final report", rep, s.final.Report); err != nil {
		return err
	}
	if err := sameJournal(where, journal.Bytes(), s.journal); err != nil {
		return err
	}
	rec, err := obs.ParseSessionJournal(s.journal)
	if err != nil {
		return fmt.Errorf("%s: journal: %w", where, err)
	}
	off, err := streamrisk.OfflineScores(rec, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	if s.scores == nil {
		return fmt.Errorf("%s: no streamed scores", where)
	}
	if err := sameBits(where+": streamed scores", cumulativeOf(off), cumulativeOf(*s.scores)); err != nil {
		return err
	}
	rt.submits += int64(len(s.resp))
	rt.events += ctx.Engine.Fired()
	rt.killed += rep.Killed
	rt.sessions++
	pr := rt.policy[s.plan.policy]
	if pr == nil {
		pr = &policyReplay{}
		rt.policy[s.plan.policy] = pr
	}
	pr.submit += tp.clock.total
	pr.submits += tp.clock.n
	return nil
}

// sameJournal compares journals byte for byte and names the first
// differing line.
func sameJournal(where string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Errorf("%s: journal line %d differs from the offline replay:\n  live:   %s\n  replay: %s", where, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%s: journal has %d lines, offline replay %d", where, len(gl), len(wl))
}

// sseCounts classifies every sequence number the engine issued after the
// subscriber's anchor exactly once.
type sseCounts struct {
	deltas   int64 // delivered as a delta
	resynced int64 // lost, then covered by a resync snapshot
	gaps     int64 // lost and never covered, below the last number seen
	lag      int64 // beyond the last number seen when the run ended
	stale    int64 // deltas at or below an anchor they arrived after (discarded)
	resyncs  int64
}

// accountSSE replays the subscriber's frames against the engine's end
// sequence. Deltas are published outside the engine lock, so they may
// arrive out of order; a delta is never delivered twice, none is beyond
// the engine's sequence, and deltas + resynced + gaps + lag must equal the
// numbers issued since the anchor.
func accountSSE(anchor uint64, events []sseEvent, endSeq uint64) (sseCounts, error) {
	var c sseCounts
	if endSeq < anchor {
		return c, fmt.Errorf("risk stream: engine sequence %d below the anchor %d", endSeq, anchor)
	}
	state := make([]byte, endSeq-anchor+1) // index seq-anchor: 0 unseen, 1 delta, 2 resynced
	covered, maxSeen := anchor, anchor
	for _, e := range events {
		if e.seq > endSeq {
			return c, fmt.Errorf("risk stream: saw sequence %d beyond the engine's %d", e.seq, endSeq)
		}
		if e.seq > maxSeen {
			maxSeen = e.seq
		}
		if e.resync {
			c.resyncs++
			for q := covered + 1; q <= e.seq; q++ {
				if state[q-anchor] == 0 {
					state[q-anchor] = 2
				}
			}
			if e.seq > covered {
				covered = e.seq
			}
			continue
		}
		switch {
		case e.seq <= covered:
			c.stale++
		case state[e.seq-anchor] == 1:
			return c, fmt.Errorf("risk stream: delta %d delivered twice", e.seq)
		default:
			state[e.seq-anchor] = 1
		}
	}
	for q := anchor + 1; q <= endSeq; q++ {
		switch {
		case state[q-anchor] == 1:
			c.deltas++
		case state[q-anchor] == 2:
			c.resynced++
		case q < maxSeen:
			c.gaps++
		default:
			c.lag++
		}
	}
	if got := c.deltas + c.resynced + c.gaps + c.lag; uint64(got) != endSeq-anchor {
		return c, fmt.Errorf("risk stream: deltas %d + resynced %d + gaps %d + lag %d = %d, engine issued %d",
			c.deltas, c.resynced, c.gaps, c.lag, got, endSeq-anchor)
	}
	return c, nil
}

// checkScopes checks the plane's global and policy scopes by sample count:
// they fold concurrent sessions in arrival order, so only counts are
// comparable.
func checkScopes(snap streamrisk.Snapshot, d *driver, finals int64) error {
	if snap.Global.Events != d.decided.Load() {
		return fmt.Errorf("plane global scope holds %d decisions, %d were made", snap.Global.Events, d.decided.Load())
	}
	if snap.Global.Finals != finals {
		return fmt.Errorf("plane global scope holds %d finals, %d sessions finalized", snap.Global.Finals, finals)
	}
	got := map[string]int64{}
	for _, ps := range snap.Policies {
		got[ps.Name] = ps.Scores.Events
	}
	for _, name := range commodityPolicies() {
		want := int64(0)
		if v, ok := d.byPolicy.Load(name); ok {
			want = v.(*atomic.Int64).Load()
		}
		if got[name] != want {
			return fmt.Errorf("plane policy scope %s holds %d decisions, %d were made", name, got[name], want)
		}
	}
	return nil
}
