// Package serve is the inference serving subsystem: it takes a trained
// (typically persist-loaded) model.Network and serves next-token /
// classification / regression inference over HTTP+JSON or in-process
// calls, with a dynamic micro-batcher at its core.
//
// Concurrent requests are coalesced — a batch is offered to the
// workers at once and grows, up to its size cap, while they are all
// busy — into single batched InferBatch sweeps through a
// worker pool whose members each own a tensor.Workspace arena and share
// the checkpoint's weights read-only. Per-request inference footprint
// is tiny (the cache-free FW cell stores nothing), so throughput scales
// with the batch the coalescer can form instead of degrading with
// concurrency.
//
// Around the batcher: per-connection stateful sessions (h/s carried
// across requests for streaming, TTL-evicted), request deadlines, a
// bounded admission queue with load shedding (429 + Retry-After),
// graceful drain (zero dropped in-flight requests), panic isolation,
// and /healthz + /statz endpoints exporting queue depth, the
// batch-size histogram and p50/p99 latency. See DESIGN.md §9.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/persist"
	"etalstm/internal/rtrace"
)

// ErrBadRequest wraps request-validation failures (HTTP 400).
var ErrBadRequest = errors.New("serve: bad request")

// ErrNotReady is returned while no checkpoint is loaded (a standby
// server before its first Reload) — HTTP 503 on /readyz and /v1/infer.
var ErrNotReady = errors.New("serve: no checkpoint loaded")

// Options tunes a Server; zero values select production-sensible
// defaults.
type Options struct {
	// MaxBatch caps the micro-batch size (0 = 32): a batch takes no
	// more requests once it holds this many.
	MaxBatch int
	// Window is how long a forming batch waits for company before it
	// is offered to the workers (0 = dispatch as soon as a worker is
	// free). Whatever the window, a batch keeps growing up to MaxBatch
	// while every worker is busy.
	Window time.Duration
	// QueueCap bounds the admission queue (0 = 8×MaxBatch); submissions
	// beyond it are shed with ErrQueueFull.
	QueueCap int
	// Workers is the sweep worker pool size (0 = NumCPU, capped at 8).
	// Each worker owns a private arena; weights are shared read-only.
	Workers int
	// SessionTTL evicts idle streaming sessions (0 = 5m).
	SessionTTL time.Duration
	// RequestTimeout bounds each HTTP request end to end (0 = 5s).
	RequestTimeout time.Duration
	// MaxSeqLen rejects sequences longer than this (0 = 1024) so one
	// request cannot monopolize a sweep.
	MaxSeqLen int
	// DrainTimeout bounds graceful shutdown (0 = 15s).
	DrainTimeout time.Duration
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the server's mux. Off by default: the profiles
	// expose internals (heap contents, goroutine stacks) that do not
	// belong on an open inference port.
	EnablePprof bool
	// EnableAdmin mounts POST /v1/admin/reload, which loads a checkpoint
	// file named by the caller and hot-swaps it in. Off by default for
	// the same reason as pprof: it lets the caller make the server read
	// arbitrary paths, which belongs on a trusted port only.
	EnableAdmin bool
	// Tracer, when non-nil, traces requests and sweeps into its flight
	// recorder and mounts GET /debug/traces (+ /debug/traces/{id}) on
	// the server's mux. nil (the default) disables tracing entirely —
	// every trace point degrades to a pointer test.
	Tracer *rtrace.Tracer
	// Log receives the server's structured log records (sweep panics,
	// drain progress), stamped with trace ids where one exists. nil (the
	// default) is silent.
	Log *obs.Logger
	// TraceDumpWriter receives the flight-recorder dump written when a
	// sweep panics (nil = os.Stderr). Only read when Tracer is set.
	TraceDumpWriter io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 8 * o.MaxBatch
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 5 * time.Minute
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxSeqLen <= 0 {
		o.MaxSeqLen = 1024
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	return o
}

// Request is one inference call: an input sequence and an optional
// session id for streaming state.
type Request struct {
	// Inputs is the sequence, one vector of width Cfg.InputSize per
	// timestep. Lengths may vary freely between requests.
	Inputs [][]float32
	// Session, when non-empty, carries h/s across requests under this
	// id: each call continues where the previous one on the same id
	// stopped. Concurrent calls on one id are serialized.
	Session string
}

// Result is the model's answer at the sequence's final timestep.
type Result struct {
	// Output is the projected output row (logits for classification,
	// values for regression), width Cfg.OutSize.
	Output []float32
	// Class is the argmax over Output for classification models, -1
	// for regression.
	Class int
}

// generation is one served checkpoint: the network, the batcher (and
// worker pool) sweeping it, and the checkpoint's identity. Hot-swap
// builds a fresh generation next to the live one and flips an atomic
// pointer, so a swap never pauses traffic: requests racing the flip
// land on whichever generation they loaded, and the old batcher's
// graceful drain finishes everything it admitted.
type generation struct {
	net *model.Network
	b   *batcher
	seq int64 // 1 for the first load, +1 per swap

	// digest is the hex SHA-256 checkpoint content digest: the one the
	// loader verified, or "" until the first read computes it (see
	// contentDigest). Nothing on the request path reads it, so a cold
	// start does not hash the weights a second time.
	digest     string
	digestOnce sync.Once
}

// digestNetwork is persist.Digest; tests count its calls.
var digestNetwork = persist.Digest

// contentDigest returns the generation's checkpoint digest, hashing the
// weights on the first call when the loader did not supply it.
func (g *generation) contentDigest() string {
	g.digestOnce.Do(func() {
		if g.digest == "" {
			g.digest, _ = digestNetwork(g.net)
		}
	})
	return g.digest
}

// Server owns the session table, the metrics registry and the current
// checkpoint generation (batcher + worker pool). Sessions and metrics
// survive hot-swaps; the generation is what a swap replaces.
type Server struct {
	opts     Options
	m        *metrics
	sessions *sessionTable

	// gen is the serving generation; nil on a standby server that has
	// not loaded its first checkpoint yet.
	gen atomic.Pointer[generation]
	// swapMu serializes Reload against itself and against Close.
	swapMu sync.Mutex

	mux      *http.ServeMux
	draining atomic.Bool

	closeOnce   sync.Once
	closeErr    error
	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// NewStandby builds a server with no checkpoint loaded: /healthz is
// live, /readyz answers 503, and inference fails with ErrNotReady
// until the first Reload. This is the fleet's warm-spare shape — the
// process (port, mux, sessions) exists before the weights do.
func NewStandby(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:        opts,
		m:           newMetrics(opts.MaxBatch),
		sessions:    newSessionTable(opts.SessionTTL),
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	obs.RegisterBuildInfo(s.m.reg)
	// Derived gauges close over the live server; they are evaluated at
	// export time, so /metrics and /statz always agree.
	s.m.reg.GaugeFunc(metricQueueDepth, "requests waiting in the admission queue",
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return float64(g.b.depth())
			}
			return 0
		})
	s.m.reg.GaugeFunc(metricSessions, "live streaming sessions",
		func() float64 { return float64(s.sessions.count()) })
	s.m.reg.GaugeFunc(metricUptime, "seconds since the server started",
		func() float64 { return time.Since(s.m.start).Seconds() })
	s.m.reg.GaugeFunc(metricSwapGen, "checkpoint generation (1 = first load, +1 per swap)",
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return float64(g.seq)
			}
			return 0
		})
	s.mux = s.routes()
	go s.janitor()
	return s
}

// New builds a server around net. The network's weights are treated as
// read-only from here on; training it concurrently is not supported.
// digest is net's content digest, as persist.LoadFileDigest returns it
// alongside the network it verified; "" computes it on first read.
func New(net *model.Network, digest string, opts Options) *Server {
	s := NewStandby(opts)
	s.install(&generation{net: net, b: newBatcher(net, s.opts, s.m), digest: digest, seq: 1})
	return s
}

// install publishes a generation and its identity metrics.
func (s *Server) install(g *generation) {
	s.gen.Store(g)
	s.m.reg.InfoFunc(metricCheckpointDigest, "content digest of the served checkpoint",
		"digest", g.contentDigest)
}

// checkServingCompat rejects a swap that would invalidate live session
// state or change what clients see: the serving geometry (input/output
// widths, hidden size, layer count, loss) must match. SeqLen and Batch
// are training-shape fields inference never reads, so they may differ.
func checkServingCompat(got, want model.Config) error {
	got.SeqLen, got.Batch = want.SeqLen, want.Batch
	if err := persist.CheckConfig(got, want); err != nil {
		return fmt.Errorf("%w: incompatible checkpoint: %v", ErrBadRequest, err)
	}
	return nil
}

// Reload hot-swaps the served checkpoint: build a standby generation
// (own batcher + worker pool) around net, verify it by running a probe
// inference through it, atomically flip the serving pointer, then
// gracefully drain the old generation. In-flight requests are never
// dropped — requests admitted to the old batcher complete on the old
// weights, and a submission racing the flip retries on the new
// generation (see Infer). digest may be empty; it is computed on first
// read.
func (s *Server) Reload(net *model.Network, digest string) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.draining.Load() {
		return ErrClosed
	}
	old := s.gen.Load()
	if old != nil {
		if err := checkServingCompat(net.Cfg, old.net.Cfg); err != nil {
			return err
		}
	}
	nb := newBatcher(net, s.opts, s.m)
	// Health-verify the standby before any traffic can reach it: one
	// zero-input probe must survive a full sweep.
	probeCtx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
	probe := model.InferSeq{Inputs: [][]float32{make([]float32, net.Cfg.InputSize)}}
	_, err := nb.submit(probeCtx, probe)
	cancel()
	if err != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		nb.drain(dctx)
		dcancel()
		return fmt.Errorf("serve: standby checkpoint failed probe: %w", err)
	}
	seq := int64(1)
	if old != nil {
		seq = old.seq + 1
	}
	s.install(&generation{net: net, b: nb, digest: digest, seq: seq})
	if old != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer dcancel()
		if err := old.b.drain(dctx); err != nil {
			return fmt.Errorf("serve: old generation: %w", err)
		}
	}
	return nil
}

// Generation returns the current checkpoint generation number and
// content digest (0, "" on a standby).
func (s *Server) Generation() (int64, string) {
	if g := s.gen.Load(); g != nil {
		return g.seq, g.contentDigest()
	}
	return 0, ""
}

// janitor sweeps idle sessions every quarter TTL until Close.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	period := s.opts.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sessions.evict()
		case <-s.stopJanitor:
			return
		}
	}
}

// Config returns the served model's geometry (zero value on a standby
// with no checkpoint loaded).
func (s *Server) Config() model.Config {
	if g := s.gen.Load(); g != nil {
		return g.net.Cfg
	}
	return model.Config{}
}

// Stats returns a snapshot of the serving metrics.
func (s *Server) Stats() Stats {
	depth := 0
	var seq int64
	digest := ""
	if g := s.gen.Load(); g != nil {
		depth, seq, digest = g.b.depth(), g.seq, g.contentDigest()
	}
	return s.m.snapshot(depth, s.sessions.count(), seq, digest)
}

// validate maps malformed inputs to ErrBadRequest before they can
// reach (and fail) a whole micro-batch.
func (s *Server) validate(net *model.Network, inputs [][]float32) error {
	if len(inputs) > s.opts.MaxSeqLen {
		return fmt.Errorf("%w: sequence of %d steps exceeds the %d-step limit",
			ErrBadRequest, len(inputs), s.opts.MaxSeqLen)
	}
	if err := net.CheckInferSeq(model.InferSeq{Inputs: inputs}); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// Infer submits one request through the micro-batcher and blocks until
// its sweep completes, ctx is done, or the request is shed. It is the
// in-process entry point the HTTP handler also uses.
//
// Hot-swap transparency: a submission that lands in the gap between a
// generation flip and the old batcher's close gets ErrClosed from the
// old batcher; when a newer generation exists the request simply
// resubmits there, so a swap drops zero requests.
func (s *Server) Infer(ctx context.Context, req Request) (Result, error) {
	g := s.gen.Load()
	if g == nil {
		return Result{}, ErrNotReady
	}
	if err := s.validate(g.net, req.Inputs); err != nil {
		return Result{}, err
	}
	seq := model.InferSeq{Inputs: req.Inputs}
	var sess *session
	if req.Session != "" {
		var err error
		sess, err = s.sessions.acquire(ctx, req.Session)
		if err != nil {
			return Result{}, err
		}
		seq.State = sess.state
	}
	var out model.InferOut
	var err error
	for {
		out, err = g.b.submit(ctx, seq)
		if errors.Is(err, ErrClosed) && !s.draining.Load() {
			if ng := s.gen.Load(); ng != nil && ng != g {
				g = ng
				continue
			}
		}
		break
	}
	if sess != nil {
		if err == nil {
			sess.state = out.State
		}
		s.sessions.release(sess)
	}
	if err != nil {
		return Result{}, err
	}
	return resultOf(g.net.Cfg.Loss, out), nil
}

// resultOf shapes a sweep output into the client-facing Result.
func resultOf(loss model.LossKind, out model.InferOut) Result {
	r := Result{Output: out.Output, Class: -1}
	if loss != model.RegressionLoss {
		best := 0
		for j, v := range out.Output {
			if v > out.Output[best] {
				best = j
			}
		}
		r.Class = best
	}
	return r
}

// Serve accepts connections on ln until ctx is done, then drains
// gracefully: stop accepting, finish in-flight HTTP requests, flush
// and complete every admitted batch, stop the janitor. In-flight
// requests are never dropped; the drain is bounded by DrainTimeout.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	// Order matters: Shutdown waits for in-flight handlers (whose
	// submissions must still be accepted), then the batcher drains.
	err := hs.Shutdown(drainCtx)
	if cerr := s.Close(drainCtx); err == nil {
		err = cerr
	}
	<-errc // hs.Serve has returned ErrServerClosed
	return err
}

// Close drains the batcher (bounded by ctx) and stops the janitor.
// Safe to call more than once; used directly by in-process embedders
// that never started Serve.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		// swapMu keeps a concurrent Reload from installing a fresh
		// generation after this drain; Reload re-checks draining under it.
		s.swapMu.Lock()
		if g := s.gen.Load(); g != nil {
			s.closeErr = g.b.drain(ctx)
		}
		s.swapMu.Unlock()
		close(s.stopJanitor)
		<-s.janitorDone
	})
	return s.closeErr
}

// Infer runs one single-shot batched sweep over independent sequences
// without standing up a server — the library entry point for callers
// that already hold a batch (amortizing the kernel sweep exactly like
// the micro-batcher does for concurrent callers).
func Infer(net *model.Network, seqs [][][]float32) ([]Result, error) {
	reqs := make([]model.InferSeq, len(seqs))
	for i, xs := range seqs {
		reqs[i] = model.InferSeq{Inputs: xs}
	}
	outs, err := net.InferBatch(nil, reqs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	res := make([]Result, len(outs))
	for i, out := range outs {
		res[i] = resultOf(net.Cfg.Loss, out)
	}
	return res, nil
}
