package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
)

// maxBodyBytes bounds proxied request bodies, matching serve's limit.
const maxBodyBytes = 8 << 20

// Options tunes a Router; zero values select production-sensible
// defaults.
type Options struct {
	// Replicas are the etaserve base URLs the router starts with.
	Replicas []string
	// VNodes is the virtual-node count per replica (0 = 128).
	VNodes int
	// ProbeInterval is the health-probe period (0 = 1s). Negative
	// disables the background prober entirely — tests drive the state
	// machine deterministically through ProbeOnce.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (0 = 500ms).
	ProbeTimeout time.Duration
	// EjectAfter is how many consecutive probe failures eject a replica
	// from the ring (0 = 3).
	EjectAfter int
	// RecoverAfter is how many consecutive probe successes re-admit an
	// ejected replica (0 = 2).
	RecoverAfter int
	// RequestTimeout bounds one forwarded request (0 = 10s).
	RequestTimeout time.Duration
	// ScaleUpDepth / ScaleDownDepth / AdvisorTicks tune the advice-only
	// autoscale advisor: mean scraped queue depth above ScaleUpDepth
	// (0 = 16) for AdvisorTicks (0 = 3) consecutive probe rounds advises
	// +1, below ScaleDownDepth (0 = 1) with more than one replica
	// advises -1.
	ScaleUpDepth   float64
	ScaleDownDepth float64
	AdvisorTicks   int
	// Log receives membership and swap events as structured records
	// (nil = text log on stderr, preserving the old log.Printf behavior;
	// tests log to t.Logf).
	Log *obs.Logger
	// Tracer, when non-nil, traces routed requests (routing choice,
	// failover hops, shed decisions) into its flight recorder, forwards
	// trace context to replicas via the traceparent header, and mounts
	// GET /debug/traces (+ /debug/traces/{id}, which fans out to the
	// replicas and merges their spans into one cross-process tree).
	Tracer *rtrace.Tracer
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.RecoverAfter <= 0 {
		o.RecoverAfter = 2
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.ScaleUpDepth <= 0 {
		o.ScaleUpDepth = 16
	}
	if o.ScaleDownDepth <= 0 {
		o.ScaleDownDepth = 1
	}
	if o.AdvisorTicks <= 0 {
		o.AdvisorTicks = 3
	}
	if o.Log == nil {
		o.Log = obs.NewLogger(os.Stderr)
	}
	return o
}

// Router fans inference traffic out over a fleet of etaserve replicas:
// session-sticky consistent hashing, digest-spread stateless requests,
// health-gated membership and rolling checkpoint swaps.
type Router struct {
	opts   Options
	reg    *obs.Registry
	client *http.Client
	mux    *http.ServeMux

	// mu guards ring and the members map (the map only grows; member
	// state fields are also guarded by mu).
	mu      sync.Mutex
	ring    *Ring
	members map[string]*member

	reqs, errs, retries     *obs.Counter
	ejections, rejoins      *obs.Counter
	sessionsMoved, sessLost *obs.Counter
	lastRemap, advice       *obs.Gauge
	swapGen                 atomic.Int64
	adv                     *advisor

	// swapMu serializes fleet-wide checkpoint rolls.
	swapMu    sync.Mutex
	stopProbe chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// New builds a router over the given replicas. All replicas start
// Healthy and in the ring; the first probe round corrects optimism.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas configured")
	}
	rt := &Router{
		opts:      opts,
		reg:       obs.NewRegistry(),
		client:    &http.Client{},
		ring:      NewRing(opts.VNodes),
		members:   make(map[string]*member),
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
		adv: &advisor{
			up:   opts.ScaleUpDepth,
			down: opts.ScaleDownDepth,
			need: opts.AdvisorTicks,
		},
	}
	rt.reqs = rt.reg.Counter(metricRequests, "requests accepted by the router")
	rt.errs = rt.reg.Counter(metricErrors, "requests that failed on every candidate replica")
	rt.retries = rt.reg.Counter(metricRetries, "failovers to a successor replica")
	rt.ejections = rt.reg.Counter(metricEjections, "replicas ejected from the ring")
	rt.rejoins = rt.reg.Counter(metricRejoins, "ejected replicas re-admitted")
	rt.sessionsMoved = rt.reg.Counter(metricSessionsMoved, "sessions drained to a successor replica")
	rt.sessLost = rt.reg.Counter(metricSessionsLost, "sessions lost because their replica died undrained")
	rt.lastRemap = rt.reg.Gauge(metricLastRemap, "key-space fraction remapped by the last membership change")
	rt.advice = rt.reg.Gauge(metricScaleAdvice, "autoscale advice: +1 add a replica, -1 remove one, 0 hold")
	rt.reg.GaugeFunc(metricReplicas, "replicas currently in the ring",
		func() float64 { rt.mu.Lock(); defer rt.mu.Unlock(); return float64(rt.ring.Size()) })
	rt.reg.GaugeFunc(metricSwapGen, "completed fleet checkpoint swaps",
		func() float64 { return float64(rt.swapGen.Load()) })
	obs.RegisterBuildInfo(rt.reg)

	for _, url := range opts.Replicas {
		url = strings.TrimRight(url, "/")
		if rt.members[url] != nil {
			continue
		}
		rt.members[url] = newMember(url, rt.reg)
		rt.ring.Add(url)
	}
	rt.mux = rt.routes()
	if opts.ProbeInterval > 0 {
		go rt.probeLoop()
	} else {
		close(rt.probeDone)
	}
	return rt, nil
}

// Close stops the background prober. Idempotent.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.stopProbe)
		<-rt.probeDone
	})
}

func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.ProbeOnce(context.Background())
		case <-rt.stopProbe:
			return
		}
	}
}

func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", rt.handleInfer)
	mux.HandleFunc("GET /v1/model", rt.handleModel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /fleet", rt.handleFleet)
	mux.HandleFunc("GET /statz", rt.handleFleet)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /admin/swap", rt.handleSwap)
	if rt.opts.Tracer != nil {
		mux.Handle("GET /debug/traces", rt.opts.Tracer.Handler())
		mux.HandleFunc("GET /debug/traces/{id}", rt.handleTraceByID)
	}
	return mux
}

// Handler returns the router's HTTP handler with per-request panic
// isolation.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		rt.mux.ServeHTTP(w, r)
	})
}

// sessionProbe is the one field the router reads out of an infer body.
type sessionProbe struct {
	Session string `json:"session"`
}

// handleInfer is the routing core. Session requests stick to the
// ring owner of "s:<id>"; stateless requests hash their body digest
// and take the less-loaded of the key's two ring candidates (power of
// two choices — digest affinity is a preference, balance is a
// guarantee). Transport errors, 5xx and 503 fail over to ring
// successors; 410 Gone means the session moved, and the successor
// (where the drain put it) is exactly the next candidate. A 429 shed
// fails over too — but only for stateless requests: a sticky session's
// state lives on its ring owner, so shedding there must surface to the
// client (with the replica's Retry-After intact) rather than fork the
// session on a successor.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	sp := rt.startSpan("router.request", r)
	defer sp.Finish()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		sp.Errorf("bad body")
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	var probe sessionProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		sp.Errorf("malformed JSON")
		httpError(w, http.StatusBadRequest, fmt.Sprintf("malformed JSON body: %v", err))
		return
	}
	rt.reqs.Inc()
	sticky := probe.Session != ""
	var key string
	if sticky {
		key = "s:" + probe.Session
	} else {
		sum := sha256.Sum256(body)
		key = "d:" + hex.EncodeToString(sum[:8])
	}
	sp.Attr("key", key)
	cands := rt.pick(key, sticky)
	if len(cands) == 0 {
		sp.Errorf("no routable replicas")
		httpError(w, http.StatusServiceUnavailable, "fleet: no routable replicas")
		return
	}
	sp.Event("route", "replica", cands[0].url, "candidates", strconv.Itoa(len(cands)))
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
	defer cancel()
	var lastStatus int
	var lastBody []byte
	var lastHdr http.Header
	for i, m := range cands {
		if i > 0 {
			rt.retries.Inc()
			sp.Event("failover", "to", m.url, "after_status", strconv.Itoa(lastStatus))
		}
		status, respBody, hdr, err := rt.forward(ctx, m, http.MethodPost, "/v1/infer", body, sp.Traceparent())
		if err != nil {
			if ctx.Err() != nil {
				sp.SetError(ctx.Err())
				httpError(w, http.StatusGatewayTimeout, ctx.Err().Error())
				return
			}
			sp.Event("transport-error", "replica", m.url)
			continue // transport failure: next candidate
		}
		if status >= 500 || status == http.StatusGone ||
			(status == http.StatusTooManyRequests && !sticky) {
			// 5xx (including a draining replica's 503), moved sessions and
			// stateless sheds fail over; remember the answer — headers
			// included, a 429's Retry-After must survive to the client —
			// in case every candidate gives the same one.
			if status == http.StatusTooManyRequests {
				sp.Event("shed", "replica", m.url)
			}
			lastStatus, lastBody, lastHdr = status, respBody, hdr
			continue
		}
		sp.Attr("replica", m.url)
		w.Header().Set(replicaHeader, m.url)
		copyResponse(w, status, hdr, respBody)
		return
	}
	rt.errs.Inc()
	sp.Errorf("all candidates failed (last status %d)", lastStatus)
	if lastStatus != 0 {
		if lastHdr == nil {
			lastHdr = http.Header{}
		}
		if lastHdr.Get("Content-Type") == "" {
			lastHdr.Set("Content-Type", "application/json")
		}
		copyResponse(w, lastStatus, lastHdr, lastBody)
		return
	}
	httpError(w, http.StatusBadGateway, "fleet: all candidate replicas unreachable")
}

// replicaHeader names the replica that served a proxied request, so a
// client (or a test) can attribute a response without scraping /fleet.
const replicaHeader = "X-Eta-Replica"

// startSpan opens the router-side request span, continuing an inbound
// traceparent (loadgen-originated traces) or rooting a fresh one. nil
// when tracing is off.
func (rt *Router) startSpan(name string, r *http.Request) *rtrace.Span {
	t := rt.opts.Tracer
	if t == nil {
		return nil
	}
	if tid, psid, sampled, ok := rtrace.ParseTraceparent(r.Header.Get(rtrace.TraceparentHeader)); ok {
		return t.StartRemote(name, tid, psid, sampled)
	}
	return t.StartSpan(name)
}

// pick returns the candidate replicas for key in try order: the ring
// owner and its successors (all non-ejected). Stateless requests may
// swap the first two by in-flight load.
func (rt *Router) pick(key string, sticky bool) []*member {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := rt.ring.LookupN(key, 3)
	out := make([]*member, 0, len(names))
	for _, n := range names {
		if m := rt.members[n]; m != nil {
			out = append(out, m)
		}
	}
	if !sticky && len(out) >= 2 && out[1].inflight.Load() < out[0].inflight.Load() {
		out[0], out[1] = out[1], out[0]
	}
	return out
}

// forward proxies one request to a replica, recording per-replica
// counters, in-flight load and latency. A non-empty traceparent is
// propagated so the replica's request span joins the router's trace.
func (rt *Router) forward(ctx context.Context, m *member, method, path string, body []byte, traceparent string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set(rtrace.TraceparentHeader, traceparent)
	}
	m.inflight.Add(1)
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	m.inflight.Add(-1)
	m.reqs.Inc()
	m.lats.observe(ms)
	if err != nil {
		m.errs.Inc()
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		m.errs.Inc()
		return 0, nil, nil, err
	}
	if resp.StatusCode >= 500 {
		m.errs.Inc()
	}
	return resp.StatusCode, respBody, resp.Header, nil
}

// forwardTimeout is forward bounded by the router's request timeout —
// for control-plane calls (drain, swap) that do not inherit a client
// request's context deadline.
func (rt *Router) forwardTimeout(ctx context.Context, m *member, method, path string, body []byte) (int, []byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	return rt.forward(ctx, m, method, path, body, "")
}

// handleModel forwards the geometry probe to the first routable
// replica.
func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
	defer cancel()
	for _, m := range rt.routable() {
		status, body, hdr, err := rt.forward(ctx, m, http.MethodGet, "/v1/model", nil, "")
		if err != nil || status >= 500 {
			continue
		}
		copyResponse(w, status, hdr, body)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "fleet: no routable replicas")
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if len(rt.routable()) == 0 {
		httpError(w, http.StatusServiceUnavailable, "fleet: no routable replicas")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// FleetStatus is the /fleet (and /statz) JSON report.
type FleetStatus struct {
	Replicas       []MemberStatus `json:"replicas"`
	RingMembers    int            `json:"ring_members"`
	SwapGeneration int64          `json:"swap_generation"`
	ScaleAdvice    int            `json:"scale_advice"`
	Requests       int64          `json:"requests"`
	Errors         int64          `json:"errors"`
	Retries        int64          `json:"retries"`
	Ejections      int64          `json:"ejections"`
	Rejoins        int64          `json:"rejoins"`
	SessionsMoved  int64          `json:"sessions_moved"`
	SessionsLost   int64          `json:"sessions_lost"`
}

// Status snapshots the fleet as the router sees it.
func (rt *Router) Status() FleetStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := FleetStatus{
		RingMembers:    rt.ring.Size(),
		SwapGeneration: rt.swapGen.Load(),
		ScaleAdvice:    int(rt.advice.Value()),
		Requests:       rt.reqs.Value(),
		Errors:         rt.errs.Value(),
		Retries:        rt.retries.Value(),
		Ejections:      rt.ejections.Value(),
		Rejoins:        rt.rejoins.Value(),
		SessionsMoved:  rt.sessionsMoved.Value(),
		SessionsLost:   rt.sessLost.Value(),
	}
	names := make([]string, 0, len(rt.members))
	for n := range rt.members {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rt.members[n]
		p50, p99 := m.lats.quantiles()
		st.Replicas = append(st.Replicas, MemberStatus{
			URL:        m.url,
			State:      m.state.String(),
			Fails:      m.fails,
			Oks:        m.oks,
			Inflight:   int(m.inflight.Load()),
			Requests:   m.reqs.Value(),
			Errors:     m.errs.Value(),
			P50Ms:      p50,
			P99Ms:      p99,
			QueueDepth: m.depth.Value(),
		})
	}
	return st
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Status())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
}

// swapRequest is the JSON body of POST /admin/swap.
type swapRequest struct {
	Path string `json:"path"`
}

func (rt *Router) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req swapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Path == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"path\": \"/path/to/checkpoint\"}")
		return
	}
	rep, err := rt.Swap(r.Context(), req.Path)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "report": rep})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleTraceByID resolves one trace id across the whole fleet: the
// router's local spans plus every routable replica's /debug/traces/{id}
// answer, merged and assembled into one tree — so a single id fetched
// from the router yields router request span → replica request span →
// sweep span → phase children, spanning processes.
func (rt *Router) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tid, ok := rtrace.ParseTraceID(id)
	if !ok {
		httpError(w, http.StatusBadRequest, "malformed trace id")
		return
	}
	spans := rt.opts.Tracer.WireTrace(tid)
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
	defer cancel()
	for _, m := range rt.routable() {
		status, body, _, err := rt.forward(ctx, m, http.MethodGet, "/debug/traces/"+id, nil, "")
		if err != nil || status != http.StatusOK {
			continue // replica without tracing, or trace aged out there
		}
		var tr rtrace.TraceResponse
		if json.Unmarshal(body, &tr) == nil {
			spans = append(spans, tr.Spans...)
		}
	}
	if len(spans) == 0 {
		httpError(w, http.StatusNotFound, "trace not found")
		return
	}
	writeJSON(w, http.StatusOK, rtrace.TraceResponse{
		TraceID: id, Spans: spans, Tree: rtrace.Assemble(spans),
	})
}

// routable snapshots the non-ejected members, sorted by URL for
// deterministic iteration.
func (rt *Router) routable() []*member {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		if m.state != stateEjected {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func copyResponse(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// parseGauge extracts an unlabeled gauge sample from Prometheus text.
func parseGauge(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
