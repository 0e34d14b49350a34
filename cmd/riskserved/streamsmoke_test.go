package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// TestStreamSmoke is the `make stream-smoke` CI gate: boot the real
// daemon, subscribe to /v1/risk/stream over real HTTP, drive a seeded
// session with faults, and require that the final streamed delta's
// cumulative session scores byte-match the offline streamrisk
// recomputation of the journal the daemon wrote — the streaming surface's
// end-to-end equivalence check.
func TestStreamSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startDaemon(t, ctx, serve.Config{RiskWindow: 8}, fleetConfig{}, 5*time.Second)
	base := "http://" + addr

	// Seeded workload with a live fault process — the same kind of session
	// the migration battery exercises.
	const jobs, seed = 25, int64(17)
	synth := workload.DefaultSynthConfig()
	synth.Jobs = jobs
	trace, err := workload.Generate(synth, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := qos.Synthesize(trace, qos.DefaultConfig(seed+1)); err != nil {
		t.Fatal(err)
	}

	var cr serve.CreateSessionResponse
	post(t, base+"/v1/sessions", serve.CreateSessionRequest{
		Policy: "Libra", Model: "commodity",
		Seed: seed, FaultIntensity: "low", FaultHorizon: 0.001 + trace[len(trace)-1].Submit*2,
	}, &cr)

	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, base+"/v1/risk/stream?session="+cr.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := streamrisk.NewEventReader(resp.Body)
	ev, err := r.Next()
	if err != nil || ev.Event != streamrisk.EventSnapshot {
		t.Fatalf("first frame: %+v, %v", ev, err)
	}

	for _, j := range trace {
		post(t, base+"/v1/sessions/"+cr.ID+"/jobs", serve.SubmitJobRequest{
			ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
			Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget,
			PenaltyRate: j.PenaltyRate, HighUrgency: j.HighUrgency,
		}, nil)
	}
	post(t, base+"/v1/sessions/"+cr.ID+"/finalize", struct{}{}, nil)

	// Read streamed frames until the final delta for our session.
	var final streamrisk.Delta
	for {
		ev, err := r.Next()
		if err != nil {
			t.Fatalf("stream ended before the final delta: %v", err)
		}
		if ev.Event == streamrisk.EventResync {
			t.Fatalf("unexpected resync on an actively-read stream")
		}
		if ev.Event != streamrisk.EventDelta {
			continue
		}
		var d streamrisk.Delta
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.Fatal(err)
		}
		if d.Session == cr.ID && d.Kind == streamrisk.DeltaFinal {
			final = d
			break
		}
	}

	// The offline recomputation of the journal the daemon actually wrote.
	jresp, err := http.Get(base + "/v1/sessions/" + cr.ID + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	journal, err := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if err != nil || jresp.StatusCode != http.StatusOK {
		t.Fatalf("journal: status %d, err %v", jresp.StatusCode, err)
	}
	rec, err := obs.ParseSessionJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := streamrisk.OfflineScores(rec, 8)
	if err != nil {
		t.Fatal(err)
	}

	got, err := json.Marshal(final.SessionScores)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("streamed final scores diverged from offline recomputation:\nstreamed: %s\noffline:  %s", got, want)
	}
	if final.SessionScores.Events != jobs || final.SessionScores.Finals != 1 {
		t.Errorf("final delta counts: %+v", final.SessionScores)
	}

	// The pull endpoint agrees with the last streamed delta.
	rresp, err := http.Get(base + "/v1/risk?session=" + cr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var snap streamrisk.Snapshot
	if err := json.NewDecoder(rresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if len(snap.Sessions) != 1 {
		t.Fatalf("pull snapshot sessions: %d", len(snap.Sessions))
	}
	pull, err := json.Marshal(snap.Sessions[0].Scores)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pull, want) {
		t.Errorf("pull endpoint diverged from offline recomputation:\npull:    %s\noffline: %s", pull, want)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	//lint:allow wallclock — liveness timeout for a real daemon under test, not simulation time
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
}
