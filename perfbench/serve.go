package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"etalstm"
	"etalstm/internal/rng"
	"etalstm/internal/serve"
)

// serve_mixed: a checkpoint is loaded and served with default options;
// requests go through Server.Handler().ServeHTTP in-process (no
// sockets). The mix is 80 % stateless sequences of 8–64 steps and 20 %
// chunks of 4–8 steps continuing one of 32 streaming sessions; a
// session's chunk is sent only after the previous chunk's reply. A lone
// closed-loop client sends the mix (latency), satClients closed-loop
// clients send stateless requests (capacity), and the traced run adds an
// open loop at the nominal rate and a Poisson rate ladder, each request
// timed from its due time.
const (
	nominalRate  = 120.0 // requests per second, about a quarter of the capacity at the latency limit
	ladderStart  = 240.0 // the ladder's first offered rate
	ladderFactor = 1.12
	sessionFrac  = 0.2
	numSessions  = 32
	poolSize     = 256 // distinct stateless requests, reused
	sloP90       = 50 * time.Millisecond
	// maxInFlight bounds the open loop's client goroutines; a request
	// that cannot get a slot is sent late, which its due-time latency
	// shows.
	maxInFlight = 4096
	// satClients closed-loop clients keep the server saturated without
	// overflowing its admission queue; the capacity is the median rate
	// of satBins equal time bins after the first, which is the clients'
	// ramp-up.
	satClients = 32
	satBins    = 10
	warmSteps  = 32
	// loneChunks is how many consecutive chunks the lone client's
	// requests are split into for their best median.
	loneChunks = 5
	loneMin    = 40
)

// serveInputs is everything the serving workload sends, generated from
// the seed before any timing starts.
type serveInputs struct {
	cfg       etalstm.Config
	stateless [][][]float32
	bodies    [][]byte
	// warm is set-up's warm request: warmSteps steps, whatever the seed,
	// so set-up time does not depend on a drawn length.
	warm []byte
	// streams[s] is session s's input stream; chunks are cut from it in
	// order.
	streams [][][]float32
	rng     *rng.RNG
}

func newServeInputs(seed uint64) *serveInputs {
	bench := imdb(32, 64, 16)
	b := bench.Cfg.Batch
	in := &serveInputs{cfg: bench.Cfg, rng: rng.New(seed ^ 0x5EED)}
	prov := bench.Provider((poolSize+numSessions+b-1)/b, seed)
	var rows [][][]float32 // every row of every batch, T steps each
	for i := 0; i < prov.NumBatches(); i++ {
		batch := prov.Batch(i)
		for row := 0; row < b; row++ {
			seq := make([][]float32, bench.Cfg.SeqLen)
			for t := range seq {
				seq[t] = batch.Inputs[t].Row(row)
			}
			rows = append(rows, seq)
		}
	}
	for _, seq := range rows[:poolSize] {
		seq = seq[:8+in.rng.Intn(57)]
		in.stateless = append(in.stateless, seq)
		body, _ := json.Marshal(map[string]any{"inputs": seq})
		in.bodies = append(in.bodies, body)
	}
	// Each session streams a row of its own, from the start again when
	// it runs out.
	in.streams = rows[poolSize : poolSize+numSessions]
	in.warm, _ = json.Marshal(map[string]any{"inputs": in.streams[0][:warmSteps]})
	return in
}

// event is one request of the mix.
type event struct {
	due      time.Duration // offset from the phase start (open loop only)
	session  int           // -1 = stateless
	req      int           // stateless pool index
	chunkLen int           // session chunk length
}

// draw draws one request of the mix.
func (in *serveInputs) draw(due time.Duration) event {
	ev := event{due: due, session: -1, req: in.rng.Intn(poolSize)}
	if in.rng.Float64() < sessionFrac {
		ev.session = in.rng.Intn(numSessions)
		ev.chunkLen = 4 + in.rng.Intn(5)
	}
	return ev
}

// schedule draws Poisson arrivals of the mix at rate for d.
func (in *serveInputs) schedule(rate float64, d time.Duration) []event {
	var evs []event
	t := 0.0
	for {
		t += -math.Log(1-in.rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return evs
		}
		evs = append(evs, in.draw(due))
	}
}

// sample is the outcome of one request.
type sample struct {
	session int
	req     int
	lat     time.Duration // from due time to reply
	handler time.Duration // inside ServeHTTP (or Infer)
	status  int
	out     []float32
	err     error
}

// sessionState is a streaming session's client side: chunks are sent
// one at a time, in order.
type sessionState struct {
	mu     sync.Mutex
	id     string
	stream [][]float32
	pos    int         // next stream offset
	sent   [][]float32 // every input step sent so far, in order
	last   []float32   // output of the latest successful chunk
	bad    bool        // a chunk failed or was shed: replay is void
}

// client sends requests to a server handler.
type client struct {
	h        http.Handler
	in       *serveInputs
	sessions []*sessionState
	spans    *spanLog // non-nil while the traced run traces requests
	// direct, in one traced phase, sends through Server.Infer instead of
	// the HTTP handler.
	direct *etalstm.Server
}

func newClient(h http.Handler, in *serveInputs) *client {
	c := &client{h: h, in: in}
	for s := 0; s < numSessions; s++ {
		c.sessions = append(c.sessions, &sessionState{id: fmt.Sprintf("s%02d", s), stream: in.streams[s]})
	}
	return c
}

// chunk cuts session s's next n input steps.
func (c *client) chunk(ss *sessionState, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = ss.stream[(ss.pos+i)%len(ss.stream)]
	}
	ss.pos += n
	return out
}

// phase sends evs open-loop, each at its due time after start, and
// returns one sample per event plus the generator's worst lateness.
func (c *client) phase(evs []event) ([]sample, time.Duration) {
	out := make([]sample, len(evs))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var late time.Duration
	start := time.Now()
	for i, ev := range evs {
		due := start.Add(ev.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if l := time.Since(due); l > late {
			late = l
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, ev event, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = c.send(ev, due)
		}(i, ev, due)
	}
	wg.Wait()
	return out, late
}

// lone sends requests of the mix one at a time, each after the
// previous reply, until the deadline and at least loneMin of them, so
// even a short run sees both kinds.
func (c *client) lone(until time.Time) []sample {
	var out []sample
	for len(out) < loneMin || time.Now().Before(until) {
		out = append(out, c.send(c.in.draw(0), time.Now()))
	}
	return out
}

// send issues one request and times it from due.
func (c *client) send(ev event, due time.Time) sample {
	s := sample{session: ev.session, req: ev.req}
	var body []byte
	var ss *sessionState
	var inputs [][]float32
	if ev.session >= 0 {
		ss = c.sessions[ev.session]
		ss.mu.Lock() // the previous chunk's reply comes first
		defer ss.mu.Unlock()
		inputs = c.chunk(ss, ev.chunkLen)
		body, _ = json.Marshal(map[string]any{"inputs": inputs, "session": ss.id})
	} else {
		inputs = c.in.stateless[ev.req]
		body = c.in.bodies[ev.req]
	}
	var root *span
	if c.spans != nil {
		root = c.spans.rootAt("request", due)
	}
	if c.direct != nil {
		sid := ""
		if ss != nil {
			sid = ss.id
		}
		var sp *span
		if root != nil {
			sp = c.spans.child(root, "serve.infer")
		}
		t0 := time.Now()
		res, err := c.direct.Infer(context.Background(), serve.Request{Inputs: inputs, Session: sid})
		s.handler = time.Since(t0)
		s.lat = time.Since(due)
		if sp != nil {
			c.spans.end(sp)
			c.spans.end(root)
		}
		s.status, s.out, s.err = http.StatusOK, res.Output, err
		if err != nil {
			s.status = http.StatusInternalServerError
		}
	} else {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var sp *span
		if root != nil {
			sp = c.spans.child(root, "serve.handler")
		}
		t0 := time.Now()
		c.h.ServeHTTP(rec, req)
		s.handler = time.Since(t0)
		s.lat = time.Since(due)
		if sp != nil {
			c.spans.end(sp)
			c.spans.end(root)
		}
		s.status = rec.Code
		if rec.Code == http.StatusOK {
			var resp struct {
				Output []float32 `json:"output"`
			}
			s.err = json.Unmarshal(rec.Body.Bytes(), &resp)
			s.out = resp.Output
		} else {
			s.err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
	if ss != nil {
		if s.err == nil {
			ss.sent = append(ss.sent, inputs...)
			ss.last = s.out
		} else {
			ss.bad = true
		}
	}
	return s
}

// warm sends one second of nominal load before anything is timed, so
// the server's arenas and the runtime's heap reach their steady size.
func (c *client) warm() []sample {
	samples, _ := c.phase(c.in.schedule(nominalRate, time.Second))
	return samples
}

// bestMedian splits a closed-loop phase's latencies, in the order they
// were measured, into n consecutive chunks and returns the lowest chunk
// median (ms): the best of n, as training reports its best rounds.
func bestMedian(lat []float64, n int) float64 {
	best := math.Inf(1)
	for k := 0; k < n; k++ {
		if part := lat[k*len(lat)/n : (k+1)*len(lat)/n]; len(part) > 0 {
			best = math.Min(best, median(part))
		}
	}
	return best
}

// latencies splits a phase's successful samples by kind, in ms.
func latencies(samples []sample) (stateless, session []float64) {
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if s.session < 0 {
			stateless = append(stateless, ms(s.lat))
		} else {
			session = append(session, ms(s.lat))
		}
	}
	return stateless, session
}

// checkOutputs compares every successful stateless reply with offline
// etalstm.Infer on the same sequence, bitwise, and each clean session's
// latest reply with an offline replay of all its chunks concatenated.
// The offline references run one sequence at a time, so the checks stay
// small next to the memory the workload itself took.
func checkOutputs(r *run, net *etalstm.Network, in *serveInputs, samples []sample, sessions []*sessionState) error {
	want := make([][]float32, len(in.stateless))
	bad := 0
	for _, s := range samples {
		if s.err != nil || s.session >= 0 {
			continue
		}
		if want[s.req] == nil {
			out, err := offline(net, in.stateless[s.req])
			if err != nil {
				return err
			}
			want[s.req] = out
		}
		if !sameBits(s.out, want[s.req]) {
			bad++
		}
	}
	r.check(bad == 0, "%d stateless replies differ from offline Infer", bad)
	clean := 0
	for i, ss := range sessions {
		if ss.bad || len(ss.sent) == 0 {
			continue
		}
		clean++
		replay, err := offline(net, ss.sent)
		if err != nil {
			return err
		}
		r.check(sameBits(ss.last, replay), "session %d reply differs from its offline replay", i)
	}
	r.check(clean > 0, "no session finished cleanly")
	return nil
}

// offline runs etalstm.Infer on one sequence.
func offline(net *etalstm.Network, seq [][]float32) ([]float32, error) {
	res, err := etalstm.Infer(net, [][][]float32{seq})
	if err != nil {
		return nil, err
	}
	return res[0].Output, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// startServer is serve_mixed's set-up: load the checkpoint, build the
// server with default options and answer one warm request. It returns
// the server, its network and the load time.
func startServer(path string, in *serveInputs) (*etalstm.Server, *etalstm.Network, time.Duration, error) {
	t0 := time.Now()
	net, err := etalstm.LoadNetwork(path)
	if err != nil {
		return nil, nil, 0, err
	}
	load := time.Since(t0)
	srv := etalstm.NewServer(net, etalstm.ServeOptions{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(in.warm)))
	if rec.Code != http.StatusOK {
		srv.Close(context.Background())
		return nil, nil, 0, fmt.Errorf("warm request: status %d", rec.Code)
	}
	return srv, net, load, nil
}

// prepareServe writes the seeded checkpoint and times repeated set-ups,
// keeping the last server running. It returns the set-up times (s) and
// the load times (ms).
func prepareServe(r *run) (*etalstm.Server, *etalstm.Network, *serveInputs, []float64, []float64, error) {
	in := newServeInputs(r.seed)
	net, err := etalstm.NewNetwork(in.cfg, netSeed(r.seed))
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	path := filepath.Join(r.dir, "model.ckpt")
	if err := etalstm.SaveNetwork(path, net); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	var loads []float64
	var srv *etalstm.Server
	setups, err := timeSetups(func() error {
		if srv != nil {
			srv.Close(context.Background())
		}
		var load time.Duration
		var err error
		srv, net, load, err = startServer(path, in)
		loads = append(loads, ms(load))
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	return srv, net, in, setups, loads, nil
}

// countOps counts a phase's requests: any reply but 200 fails, except
// that shed load (429) during the ladder is the server's designed
// answer to overload and counts only as a missed limit.
func countOps(r *run, samples []sample, ladder bool) {
	for _, s := range samples {
		if ladder && s.status == http.StatusTooManyRequests {
			r.op(nil)
			continue
		}
		r.op(s.err)
	}
}

// ladderStep is one offered rate of the ladder.
type ladderStep struct {
	rate    float64
	met     bool
	p90     time.Duration
	backlog bool
}

// offer runs one ladder step at rate for d. The step meets the limit
// when the p90 latency of all its requests (a shed request counts as a
// miss) stays within sloP90 and the backlog does not grow: every
// request is answered within sloP90 of the step's end.
func (c *client) offer(r *run, rate float64, d time.Duration) (ladderStep, []sample) {
	evs := c.in.schedule(rate, d)
	start := time.Now()
	samples, _ := c.phase(evs)
	end := start.Add(d)
	countOps(r, samples, true)
	var lats []float64
	backlog := false
	for i, s := range samples {
		l := math.Inf(1)
		if s.err == nil {
			l = ms(s.lat)
			if start.Add(evs[i].due).Add(s.lat).After(end.Add(sloP90)) {
				backlog = true
			}
		}
		lats = append(lats, l)
	}
	p90 := quantile(lats, 0.9)
	st := ladderStep{
		rate: rate, backlog: backlog,
		met: len(lats) > 0 && !math.IsInf(p90, 0) && p90 <= ms(sloP90) && !backlog,
	}
	if !math.IsInf(p90, 0) {
		st.p90 = time.Duration(p90 * float64(time.Millisecond))
	}
	return st, samples
}

// ladder raises the offered rate from ladderStart in steps of
// ladderFactor until the limit is missed or the deadline passes. A step
// that misses is offered once more (a single stall must not end the
// ladder); a second miss ends it. The result is the rate at which p90
// latency reaches the limit, interpolated in log-rate between the last
// step that met the limit and the missed step, or the last step that
// met it when none missed before the deadline.
func (c *client) ladder(r *run, stepDur time.Duration, until time.Time) (float64, []sample, error) {
	var all []sample
	last := ladderStep{rate: ladderStart / ladderFactor}
	rate := ladderStart / ladderFactor
	for time.Now().Add(stepDur).Before(until) || last.p90 == 0 {
		rate *= ladderFactor
		var miss ladderStep
		for try := 0; try < 2; try++ {
			st, samples := c.offer(r, rate, stepDur)
			all = append(all, samples...)
			if st.met {
				miss = ladderStep{}
				last = st
				break
			}
			if try == 0 || st.p90 < miss.p90 {
				miss = st
			}
		}
		if miss.rate == 0 {
			continue
		}
		if last.p90 == 0 {
			return 0, all, errors.New("the ladder's first rate missed the latency limit")
		}
		hi := miss.p90
		if miss.backlog || hi == 0 || hi > 4*sloP90 {
			hi = 4 * sloP90
		}
		f := float64(sloP90-last.p90) / float64(hi-last.p90)
		return last.rate * math.Pow(miss.rate/last.rate, math.Max(0, math.Min(1, f))), all, nil
	}
	return last.rate, all, nil
}

// closedLoop runs clients closed-loop clients, each sending stateless
// requests back to back, for d. It returns the median rate of requests
// completed per second over satBins equal time bins, the first left
// out, and the samples.
func (c *client) closedLoop(clients int, d time.Duration) (float64, []sample) {
	counts := make([]atomic.Int64, satBins)
	per := make([][]sample, clients)
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; time.Now().Before(until); i += clients {
				s := c.send(event{session: -1, req: i % poolSize}, time.Now())
				per[k] = append(per[k], s)
				if done := time.Now(); s.err == nil && done.Before(until) {
					counts[int(done.Sub(start)*satBins/d)].Add(1)
				}
			}
		}(k)
	}
	wg.Wait()
	rates := make([]float64, satBins)
	for b := range rates {
		rates[b] = float64(counts[b].Load()) / (d.Seconds() / satBins)
	}
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return median(rates[1:]), all
}

// serveMixed is the untraced serve_mixed run: set-up, a warm-up second,
// the lone client sending the mix until half the window, an open loop
// of the mix at the nominal rate for the rest, then the output checks.
// It reports set-up time (and, as every untraced run, peak memory). Both
// loads send the same requests however fast the machine runs, so the
// memory they take does not swing with its speed; the traced run adds
// the saturating loop and reports the latencies and rates, which do.
func serveMixed(r *run) error {
	srv, net, in, setups, _, err := prepareServe(r)
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	c := newClient(srv.Handler(), in)
	countOps(r, c.warm(), false)
	lone := c.lone(r.at(0.5))
	countOps(r, lone, false)
	open, _ := c.phase(in.schedule(nominalRate, time.Until(r.at(1))))
	countOps(r, open, false)
	// The peak is read before the offline replays of the checks, which
	// are the benchmark's work, not the server's.
	r.set("peak_rss_mb", "MB", peakRSSMB())
	if err := checkOutputs(r, net, in, append(lone, open...), c.sessions); err != nil {
		return err
	}
	r.set("setup_s", "s", median(setups))
	return nil
}
