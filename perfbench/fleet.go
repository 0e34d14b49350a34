package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/economy"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/serve/control"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// fleetSpec is one riskctl-fleet workload. Rates, session counts and
// session lengths are constants: both sides of a comparison face the same
// offered load, whatever either one's capacity.
type fleetSpec struct {
	// live is how many sessions the open loop keeps in flight, rotating
	// its requests round-robin across them.
	live int
	// rate is the open-loop request rate per second: session writes
	// (create, submits, finalize, journal, scores, delete) plus reads.
	rate float64
	// readsPerWrite interleaves this many reads after every write step.
	readsPerWrite int
}

const (
	// fleetWorkers is the worker count behind the control plane.
	fleetWorkers = 4
	// jobsPerSession is each session's length in submissions.
	jobsPerSession = 200
	// lateThreshold marks an open-loop dispatch as late.
	lateThreshold = 5 * time.Millisecond
	// warmupSessions run through the fleet during set-up.
	warmupSessions = 4
	// warmupJobs is the length of a warm-up session.
	warmupJobs = 50
)

var (
	fleetAdmit = fleetSpec{live: 16, rate: 400}
	fleetWatch = fleetSpec{live: 64, rate: 430, readsPerWrite: 3}
)

func runFleetAdmit(o options) (*capture, error) { return runFleet(o, fleetAdmit) }
func runFleetWatch(o options) (*capture, error) { return runFleet(o, fleetWatch) }

// commodityPolicies are the five commodity Table V policies sessions
// rotate over.
func commodityPolicies() []string {
	var out []string
	for _, s := range scheduler.ForModel(economy.Commodity) {
		out = append(out, s.Name)
	}
	return out
}

// sessionPlan is one session's generated inputs: its policy and the exact
// request bodies of its job stream.
type sessionPlan struct {
	k      int64
	policy string
	bodies [][]byte
}

// planSession synthesizes session k: trace seed seed+k, QoS seed
// seed+k+1, as internal/load does, and the k-th commodity policy (mod 5).
func planSession(seed, k int64, jobs int) (*sessionPlan, error) {
	synth := workload.DefaultSynthConfig()
	synth.Jobs = jobs
	trace, err := workload.Generate(synth, seed+k)
	if err != nil {
		return nil, err
	}
	if err := qos.Synthesize(trace, qos.DefaultConfig(seed+k+1)); err != nil {
		return nil, err
	}
	pols := commodityPolicies()
	p := &sessionPlan{k: k, policy: pols[int(k)%len(pols)]}
	for _, j := range trace {
		req := serve.SubmitJobRequest{
			ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
			Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget,
			PenaltyRate: j.PenaltyRate, HighUrgency: j.HighUrgency,
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, b)
	}
	return p, nil
}

// planner hands out session plans by number, generating on first use.
type planner struct {
	seed int64
	mu   sync.Mutex
	made map[int64]*sessionPlan
}

func (p *planner) get(k int64, jobs int) (*sessionPlan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sp, ok := p.made[k]; ok {
		return sp, nil
	}
	sp, err := planSession(p.seed, k, jobs)
	if err != nil {
		return nil, err
	}
	p.made[k] = sp
	return sp, nil
}

// Session-number ranges keep every session's inputs distinct and fixed by
// its role: open-loop slot s, generation g is session s + openStride·g.
const (
	openStride   = 10_000
	closedBase   = 1_000_000
	warmupBase   = 2_000_000
	closedStride = 1_000
)

// Span header names carried from the client to the plane and from the
// plane's forwards to the workers.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// fleet is one self-hosted control plane with its workers on loopback,
// built as load.SelfHost builds them, with tracing wrappers that pass
// requests straight through while the tracer is off.
type fleet struct {
	url     string
	plane   *control.Plane
	workers []*serve.Server
	servers []*http.Server
	serving sync.WaitGroup
	tr      *Tracer
	// active maps a plane goroutine to the span it is serving, so a
	// forward issued on that goroutine finds its parent.
	active sync.Map
}

type spanRef struct{ id, req uint64 }

func bootFleet(tr *Tracer) (*fleet, error) {
	f := &fleet{tr: tr}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &forwardRT{f: f, base: http.DefaultTransport}}
	f.plane = control.New(control.Config{Client: client})
	url, err := f.listen(f.wrap("control.handle", f.plane.Handler(), true))
	if err != nil {
		return nil, err
	}
	f.url = url
	for i := 1; i <= fleetWorkers; i++ {
		w := serve.New(serve.Config{})
		wurl, err := f.listen(f.wrap("serve.handle", w.Handler(), false))
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		if err := f.plane.Register(fmt.Sprintf("w-%d", i), wurl); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(l) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + l.Addr().String(), nil
}

// close stops every server and waits for their serve loops to end.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
}

// liveSessions is the workers' live-session total.
func (f *fleet) liveSessions() int {
	n := 0
	for _, w := range f.workers {
		n += w.Sessions()
	}
	return n
}

// wrap times a handler as one span per request; the plane's wrapper also
// publishes the span for its goroutine's forwards. The SSE stream is
// long-lived and passes through untraced.
func (f *fleet) wrap(name string, h http.Handler, plane bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.tr.enabled() || r.URL.Path == "/v1/risk/stream" {
			h.ServeHTTP(w, r)
			return
		}
		// A request without span headers parses as 0: a root span.
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		id, start := f.tr.newID(), f.tr.now()
		var g uint64
		if plane {
			g = goid()
			f.active.Store(g, spanRef{id, req})
		}
		h.ServeHTTP(w, r)
		if plane {
			f.active.Delete(g)
		}
		f.tr.record(Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: f.tr.now()})
	})
}

// forwardRT is the plane's transport: it times each forward from send to
// the body's close and stamps the span on the worker request.
type forwardRT struct {
	f    *fleet
	base http.RoundTripper
}

func (rt *forwardRT) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := rt.f.tr
	if !tr.enabled() {
		return rt.base.RoundTrip(req)
	}
	var parent spanRef
	if v, ok := rt.f.active.Load(goid()); ok {
		parent = v.(spanRef)
	}
	id, start := tr.newID(), tr.now()
	out := req.Clone(req.Context())
	out.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	out.Header.Set(hdrReq, strconv.FormatUint(parent.req, 10))
	resp, err := rt.base.RoundTrip(out)
	if err != nil {
		tr.record(Span{ID: id, Parent: parent.id, Req: parent.req, Name: "control.forward", Start: start, End: tr.now()})
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tr.record(Span{ID: id, Parent: parent.id, Req: parent.req, Name: "control.forward", Start: start, End: tr.now()})
	}}
	return resp, nil
}

// spanBody ends a forward span when the plane closes the response body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// newGenClient is the load generator's client: one process, at most
// conns connections to the plane.
func newGenClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
		},
	}
}

// opRecord is one request's outcome. Open-loop requests carry the time they
// were due, which their latency is measured from, and how late the
// dispatcher queued them.
type opRecord struct {
	op   string
	read bool // a scheduled read rather than a session's write step
	due  time.Time
	end  time.Time
	late time.Duration
	ok   bool
}

// sess is one live session's state in the driver.
type sess struct {
	plan    *sessionPlan
	jobs    int // submissions planned (≤ len(plan.bodies))
	id      string
	next    int // next step: 0 create, 1..jobs submit, then finalize, journal, scores, delete
	resp    []serve.SubmitJobResponse
	journal []byte
	scores  *streamrisk.Scores
	final   serve.ReportResponse
	done    bool
}

func (s *sess) created() bool { return s.next >= 1 }

// driver issues the requests of one fleet run.
type driver struct {
	f      *fleet
	client *http.Client
	// failure is the first failed request, reported by the run.
	failMu  sync.Mutex
	failure error
	failed  atomic.Int64
	tried   atomic.Int64
	// accounting for the global-scope sample-count check
	decided  atomic.Int64
	accepted atomic.Int64
	byPolicy sync.Map // policy → *atomic.Int64 decisions
	sessions []*sess
	sessMu   sync.Mutex
}

func (d *driver) fail(err error) {
	d.failed.Add(1)
	d.failMu.Lock()
	if d.failure == nil {
		d.failure = err
	}
	d.failMu.Unlock()
}

func (d *driver) err() error {
	d.failMu.Lock()
	defer d.failMu.Unlock()
	return d.failure
}

// do issues one request, checks its status, decodes into out, and returns
// its timing record.
func (d *driver) do(op, method, path string, body []byte, want int, out any, raw *[]byte) opRecord {
	rec := opRecord{op: op}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.f.url+path, rd)
	if err != nil {
		d.fail(err)
		return rec
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := d.f.tr
	traced := tr.enabled()
	var id uint64
	var start int64
	if traced {
		id, start = tr.newID(), tr.now()
		req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		req.Header.Set(hdrReq, strconv.FormatUint(id, 10))
	}
	d.tried.Add(1)
	resp, err := d.client.Do(req)
	if err != nil {
		rec.end = clock()
		d.fail(fmt.Errorf("%s %s: %w", method, path, err))
		return rec
	}
	b, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end = clock()
	if traced {
		tr.record(Span{ID: id, Req: id, Name: "client." + op, Start: start, End: tr.now()})
	}
	switch {
	case readErr != nil:
		d.fail(fmt.Errorf("%s %s: %w", method, path, readErr))
	case resp.StatusCode != want:
		d.fail(fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b)))
	default:
		rec.ok = true
		if out != nil {
			if err := json.Unmarshal(b, out); err != nil {
				rec.ok = false
				d.fail(fmt.Errorf("%s %s: decoding response: %w", method, path, err))
			}
		}
		if raw != nil {
			*raw = b
		}
	}
	return rec
}

// step issues a session's next request.
func (d *driver) step(s *sess) opRecord {
	switch {
	case s.next == 0:
		body, _ := json.Marshal(serve.CreateSessionRequest{Policy: s.plan.policy, Model: "commodity"})
		var cr serve.CreateSessionResponse
		rec := d.do("create", http.MethodPost, "/v1/sessions", body, http.StatusCreated, &cr, nil)
		if rec.ok {
			s.id = cr.ID
			d.sessMu.Lock()
			d.sessions = append(d.sessions, s)
			d.sessMu.Unlock()
		}
		s.next++
		return rec
	case s.next <= s.jobs:
		i := s.next - 1
		var sr serve.SubmitJobResponse
		rec := d.do("submit", http.MethodPost, "/v1/sessions/"+s.id+"/jobs", s.plan.bodies[i], http.StatusOK, &sr, nil)
		if rec.ok {
			s.resp = append(s.resp, sr)
			d.decided.Add(1)
			if sr.Admission == "accepted" {
				d.accepted.Add(1)
			}
			v, _ := d.byPolicy.LoadOrStore(s.plan.policy, new(atomic.Int64))
			v.(*atomic.Int64).Add(1)
		}
		s.next++
		return rec
	case s.next == s.jobs+1:
		s.next++
		return d.do("finalize", http.MethodPost, "/v1/sessions/"+s.id+"/finalize", nil, http.StatusOK, &s.final, nil)
	case s.next == s.jobs+2:
		s.next++
		return d.do("journal", http.MethodGet, "/v1/sessions/"+s.id+"/journal", nil, http.StatusOK, nil, &s.journal)
	case s.next == s.jobs+3:
		var snap streamrisk.Snapshot
		rec := d.do("risk", http.MethodGet, "/v1/risk?session="+s.id, nil, http.StatusOK, &snap, nil)
		if rec.ok {
			if len(snap.Sessions) != 1 || snap.Sessions[0].ID != s.id {
				d.fail(fmt.Errorf("session %s: plane risk view has %d matching sessions", s.id, len(snap.Sessions)))
			} else {
				sc := snap.Sessions[0].Scores
				s.scores = &sc
			}
		}
		s.next++
		return rec
	default:
		s.done = true
		return d.do("delete", http.MethodDelete, "/v1/sessions/"+s.id, nil, http.StatusOK, nil, nil)
	}
}

// finish runs a session's remaining steps, cutting its job stream short
// at what it has already submitted.
func (d *driver) finish(s *sess) {
	if s.done || !s.created() {
		return // finished, or never created: nothing to finish
	}
	if s.next <= s.jobs {
		s.jobs = s.next - 1
	}
	for !s.done && d.err() == nil {
		d.step(s)
	}
}

// snapshotRead issues a fleet-wide /v1/risk read. Reads check their
// status and read the whole body but do not decode it: the generator's own
// decoding would hold up the requests queued behind it.
func (d *driver) snapshotRead() opRecord {
	return d.do("risk", http.MethodGet, "/v1/risk", nil, http.StatusOK, nil, nil)
}

// reportRead reads a live session's report through the plane, or the
// fleet-wide snapshot when the slot has no live session.
func (d *driver) reportRead(s *sess) opRecord {
	if s == nil || !s.created() || s.done || s.id == "" {
		return d.snapshotRead()
	}
	return d.do("report", http.MethodGet, "/v1/sessions/"+s.id+"/report", nil, http.StatusOK, nil, nil)
}

// shard is one of the generator's nproc request streams; it owns the
// sessions of the slots mapped to it, so each session's requests go out
// strictly in order.
type shard struct {
	queue chan task
	recs  []opRecord
}

// task is one due open-loop request: a write step of a slot, or a read.
type task struct {
	due   time.Time
	late  time.Duration
	slot  int
	read  bool
	fleet bool // a fleet-wide snapshot read rather than a session report
}

// openLoop dispatches the fixed-rate stream for dur and returns every
// request's record, the dispatcher's lateness, and the peak live-session
// count.
func (d *driver) openLoop(spec fleetSpec, pl *planner, slots []*sess, dur time.Duration, seed int64) ([]opRecord, int, error) {
	n := runtime.NumCPU()
	ticks := int(spec.rate * dur.Seconds())
	shards := make([]*shard, n)
	var wg sync.WaitGroup
	gens := make([]int64, len(slots))
	for i := range shards {
		// Sized to every tick, so the dispatcher never blocks on a busy
		// shard: a stalled shard shows as latency from the due time.
		shards[i] = &shard{queue: make(chan task, ticks)}
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			for t := range sh.queue {
				var rec opRecord
				switch {
				case t.read && t.fleet:
					rec = d.snapshotRead()
				case t.read:
					rec = d.reportRead(slots[t.slot])
				default:
					s := slots[t.slot]
					if s.done {
						gens[t.slot]++
						plan, err := pl.get(int64(t.slot)+openStride*gens[t.slot], jobsPerSession)
						if err != nil {
							d.fail(err)
							continue
						}
						s = &sess{plan: plan, jobs: jobsPerSession}
						slots[t.slot] = s
					}
					rec = d.step(s)
				}
				rec.due, rec.late, rec.read = t.due, t.late, t.read
				sh.recs = append(sh.recs, rec)
			}
		}(shards[i])
	}
	rng := rand.New(rand.NewSource(seed))
	cycle := 1 + spec.readsPerWrite
	peak := 0
	start := clock()
	period := time.Duration(float64(time.Second) / spec.rate)
	for i := 0; i < ticks && d.err() == nil; i++ {
		due := start.Add(time.Duration(i) * period)
		if i%100 == 0 {
			if live := d.f.liveSessions(); live > peak {
				peak = live
			}
		}
		if wait := due.Sub(clock()); wait > 0 {
			time.Sleep(wait) //lint:allow wallclock — the open loop paces real request arrivals
		}
		t := task{due: due, late: clock().Sub(due)}
		w := i / cycle
		switch r := i % cycle; {
		case r == 0:
			t.slot = w % len(slots)
		case r == cycle-1 && spec.readsPerWrite > 1:
			t.read, t.fleet, t.slot = true, true, rng.Intn(len(slots))
		default:
			t.read, t.slot = true, rng.Intn(len(slots))
		}
		shards[t.slot%n].queue <- t
	}
	for _, sh := range shards {
		close(sh.queue)
	}
	wg.Wait()
	var recs []opRecord
	for _, sh := range shards {
		recs = append(recs, sh.recs...)
	}
	return recs, peak, d.err()
}

// closedSlices is how many equal slices the closed loop is cut into: the
// reported rate and CPU cost are medians over slices, and a traced run
// alternates tracing off and on between them.
const closedSlices = 8

// closedLoop runs nproc clients back to back for dur. Each client owns one
// session per commodity policy and sends its write steps round-robin across
// them, each followed by the workload's reads, so every slice of the phase
// sees the same policy mix. It returns the records, the sessions left open,
// and the per-slice submissions and CPU time.
func (d *driver) closedLoop(spec fleetSpec, pl *planner, slots []*sess, dur time.Duration, traced bool) ([]opRecord, []*sess, []slice, error) {
	n := runtime.NumCPU()
	pols := len(commodityPolicies())
	sliceDur := dur / closedSlices
	var mu sync.Mutex
	var recs []opRecord
	var open []*sess
	slices := make([]slice, closedSlices)
	start := clock()
	deadline := start.Add(dur)
	var phaseErr atomic.Value
	// The ticker records CPU time at slice boundaries and, when traced,
	// toggles tracing: off in even slices, on in odd ones.
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for k := 0; k < closedSlices; k++ {
			slices[k].traced = traced && k%2 == 1
			d.f.tr.on.Store(slices[k].traced)
			slices[k].t0, slices[k].cpu0 = clock(), cpuTime()
			time.Sleep(time.Until(start.Add(time.Duration(k+1) * sliceDur))) //lint:allow wallclock — slice boundaries of the closed loop
			slices[k].t1, slices[k].cpu1 = clock(), cpuTime()
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []opRecord
			own := make([]*sess, pols)
			gen := make([]int64, pols)
			r := 0
			for i := 0; clock().Before(deadline) && d.err() == nil; i++ {
				j := i % pols
				if own[j] == nil || own[j].done {
					plan, err := pl.get(closedBase+int64(c*pols+j)+closedStride*gen[j], jobsPerSession)
					if err != nil {
						phaseErr.Store(err)
						return
					}
					gen[j]++
					own[j] = &sess{plan: plan, jobs: jobsPerSession}
				}
				mine = append(mine, d.step(own[j]))
				for k := 0; k < spec.readsPerWrite && clock().Before(deadline); k++ {
					var rr opRecord
					if k == spec.readsPerWrite-1 && spec.readsPerWrite > 1 {
						rr = d.snapshotRead()
					} else {
						r++
						rr = d.reportRead(slots[(c+n*r)%len(slots)])
					}
					mine = append(mine, rr)
				}
			}
			mu.Lock()
			recs = append(recs, mine...)
			open = append(open, own...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ticker.Wait()
	d.f.tr.on.Store(false)
	if v := phaseErr.Load(); v != nil {
		return nil, nil, nil, v.(error)
	}
	for _, r := range recs {
		if r.op != "submit" || !r.ok {
			continue
		}
		for k := range slices {
			if !r.end.Before(slices[k].t0) && r.end.Before(slices[k].t1) {
				slices[k].submits++
				break
			}
		}
	}
	return recs, open, slices, d.err()
}

// slice is one closed-loop slice's measurement.
type slice struct {
	traced     bool
	submits    int64
	t0, t1     time.Time
	cpu0, cpu1 time.Duration
}

func (s slice) rate() float64     { return share(float64(s.submits), s.t1.Sub(s.t0).Seconds()) }
func (s slice) cpuPerOp() float64 { return share(ms(s.cpu1-s.cpu0), float64(s.submits)) }

// sseProbe is the run's one SSE subscriber on the plane's risk stream. It
// records the sequence number of every delta and resync it receives; the
// accounting happens once the engine's end sequence is known.
type sseProbe struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error
	anchor uint64
	max    atomic.Uint64 // highest sequence seen so far
	events []sseEvent
}

// sseEvent is one received frame: a delta's sequence, or a resync
// snapshot's.
type sseEvent struct {
	seq    uint64
	resync bool
}

func startSSE(url string) (*sseProbe, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &sseProbe{cancel: cancel, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/risk/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	tr := &http.Transport{DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	fail := func(err error) (*sseProbe, error) {
		resp.Body.Close()
		tr.CloseIdleConnections()
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("risk stream: status %d", resp.StatusCode))
	}
	r := streamrisk.NewEventReader(resp.Body)
	ev, err := r.Next()
	if err != nil || ev.Event != streamrisk.EventSnapshot {
		return fail(fmt.Errorf("risk stream: no opening snapshot (%v)", err))
	}
	var snap streamrisk.Snapshot
	if err := json.Unmarshal(ev.Data, &snap); err != nil {
		return fail(err)
	}
	p.anchor = snap.Seq
	p.max.Store(snap.Seq)
	go func() {
		defer close(p.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		for {
			ev, err := r.Next()
			if err != nil {
				if ctx.Err() == nil {
					p.err = err
				}
				return
			}
			var e sseEvent
			switch ev.Event {
			case streamrisk.EventDelta:
				var dl streamrisk.Delta
				if err := json.Unmarshal(ev.Data, &dl); err != nil {
					p.err = err
					return
				}
				e.seq = dl.Seq
			case streamrisk.EventResync, streamrisk.EventSnapshot:
				var s streamrisk.Snapshot
				if err := json.Unmarshal(ev.Data, &s); err != nil {
					p.err = err
					return
				}
				e = sseEvent{seq: s.Seq, resync: true}
			default:
				continue
			}
			p.events = append(p.events, e)
			if e.seq > p.max.Load() {
				p.max.Store(e.seq)
			}
		}
	}()
	return p, nil
}

// stop waits briefly for the subscriber to reach the engine's end
// sequence, then cancels it and waits for it to exit. Calling it again
// returns at once.
func (p *sseProbe) stop(endSeq uint64) {
	for i := 0; i < 200 && p.max.Load() < endSeq; i++ {
		time.Sleep(5 * time.Millisecond) //lint:allow wallclock — bounded wait for the stream to drain
	}
	p.cancel()
	<-p.done
}
