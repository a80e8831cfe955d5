package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
	"etalstm/internal/tensor"
)

// Submission failure modes the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned when the bounded admission queue is at
	// capacity — the load-shedding signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned for submissions after drain has begun
	// (HTTP 503). Requests already admitted still complete.
	ErrClosed = errors.New("serve: server draining")
)

// pending is one admitted request waiting for (or undergoing) a
// batched sweep.
type pending struct {
	seq  model.InferSeq
	ctx  context.Context
	done chan outcome // buffered(1): the worker never blocks delivering
	enq  time.Time
}

type outcome struct {
	out model.InferOut
	err error
}

// pendingPool recycles pending structs (and their one-slot done
// channels) across submissions — two allocations per request otherwise.
// Only requests whose outcome was received go back: a canceled request
// may still get a late buffered delivery from the worker, so its
// channel can never be reused.
var pendingPool = sync.Pool{
	New: func() any { return &pending{done: make(chan outcome, 1)} },
}

// batcher coalesces concurrent submissions into dense micro-batches.
//
// State machine (DESIGN.md §9): requests are admitted into a bounded
// queue (`in`); a single collector goroutine offers the forming batch
// to the worker pool as soon as it opens (or once an explicit Window
// has elapsed since its first request) and keeps growing it, up to
// MaxBatch, while no worker is free to take it. Each worker owns a
// private tensor.Workspace and runs the group it takes through one
// Network.InferBatch sweep — the weights are shared read-only, so the
// pool serves one checkpoint without cloning it.
type batcher struct {
	net  *model.Network
	opts Options
	m    *metrics

	// mu guards closed and makes Submit's send race-free against
	// close(in): sends happen under RLock, drain flips closed under the
	// write lock, so no sender can be in flight when the channel closes.
	mu     sync.RWMutex
	closed bool
	in     chan *pending

	work chan []*pending
	wg   sync.WaitGroup // collector + workers
}

func newBatcher(net *model.Network, opts Options, m *metrics) *batcher {
	b := &batcher{
		net:  net,
		opts: opts,
		m:    m,
		in:   make(chan *pending, opts.QueueCap),
		work: make(chan []*pending),
	}
	b.wg.Add(1)
	go b.collect()
	for i := 0; i < opts.Workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// submit admits one request and blocks until its batch completes or ctx
// is done. A request canceled while still queued is skipped by the
// worker (it never joins a sweep); the submitter gets ctx.Err().
func (b *batcher) submit(ctx context.Context, seq model.InferSeq) (model.InferOut, error) {
	p := pendingPool.Get().(*pending)
	p.seq, p.ctx, p.enq = seq, ctx, time.Now()
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return model.InferOut{}, ErrClosed
	}
	select {
	case b.in <- p:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.m.rejected.Add(1)
		return model.InferOut{}, ErrQueueFull
	}
	b.m.submitted.Add(1)
	select {
	case o := <-p.done:
		if o.err == nil {
			b.m.completed.Add(1)
			// The request's trace id rides the latency observation as an
			// exemplar, so the histogram's tail can name a concrete trace.
			ex := ""
			if sp := rtrace.FromContext(ctx); sp != nil {
				ex = sp.TraceID().String()
			}
			b.m.observeLatency(time.Since(p.enq), ex)
		} else {
			b.m.failed.Add(1)
		}
		p.seq, p.ctx = model.InferSeq{}, nil
		pendingPool.Put(p)
		return o.out, o.err
	case <-ctx.Done():
		b.m.canceled.Add(1)
		return model.InferOut{}, ctx.Err()
	}
}

// depth reports the admitted-but-uncollected queue length.
func (b *batcher) depth() int { return len(b.in) }

// collect is the single goroutine that forms micro-batches. A group
// opens with the first request to arrive. With an explicit Window the
// group first waits up to Window for company; then (at once when Window
// is 0) it is offered to the workers, and while every worker is busy
// the collector keeps appending arrivals to the offered group. A group
// stops taking arrivals at MaxBatch. The collector exits, handing off
// the final group, when drain closes the admission queue.
func (b *batcher) collect() {
	defer b.wg.Done()
	defer close(b.work)
	var timer *time.Timer
	if b.opts.Window > 0 {
		timer = time.NewTimer(b.opts.Window)
		if !timer.Stop() {
			<-timer.C
		}
	}
	closed := false
	for !closed {
		p, ok := <-b.in
		if !ok {
			return
		}
		group := []*pending{p}
		var wait <-chan time.Time // non-nil while the window is open
		if timer != nil {
			timer.Reset(b.opts.Window)
			wait = timer.C
		}
		for group != nil {
			// Nil channels switch select cases off: a full group (or a
			// closed queue) takes no arrivals and stops waiting; an open
			// window holds the group back from the workers.
			in, work := b.in, b.work
			if closed || len(group) >= b.opts.MaxBatch {
				in = nil
				if wait != nil && !timer.Stop() {
					<-timer.C
				}
				wait = nil
			}
			if wait != nil {
				work = nil
			}
			select {
			case work <- group:
				group = nil
			case p, ok := <-in:
				if ok {
					group = append(group, p)
				} else {
					closed = true
				}
			case <-wait:
				wait = nil
			}
		}
	}
}

// worker runs flushed groups through batched sweeps. Each worker owns
// its workspace arena; the network weights are only read. With tracing
// on, the worker also owns a phase recorder riding the workspace — its
// snapshot deltas become each sweep span's FW phase children.
func (b *batcher) worker() {
	defer b.wg.Done()
	ws := tensor.NewWorkspace()
	if b.opts.Tracer != nil {
		ws.SetRecorder(obs.NewRecorder())
	}
	for group := range b.work {
		b.runGroup(ws, group)
	}
}

func (b *batcher) runGroup(ws *tensor.Workspace, group []*pending) {
	// Requests canceled while queued drop out here, before the sweep.
	live := make([]*pending, 0, len(group))
	for _, p := range group {
		if p.ctx.Err() != nil {
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	b.m.observeBatch(len(live))
	// The sweep span is a child of the first sampled traced request in
	// the batch (the first traced one when none is sampled), so it is
	// kept whenever any rider's trace is; every other traced member
	// links to the shared sweep span, and its trace resolves the link,
	// so all riders show the same sweep.
	var sweep *rtrace.Span
	if b.opts.Tracer != nil {
		var owner *rtrace.Span
		for _, p := range live {
			sp := rtrace.FromContext(p.ctx)
			if sp != nil && (owner == nil || (!owner.Sampled() && sp.Sampled())) {
				owner = sp
			}
		}
		sweep = owner.Child("serve.sweep")
		for _, p := range live {
			if sp := rtrace.FromContext(p.ctx); sp != nil && sp != owner {
				sp.Link("sweep", sweep)
			}
		}
		sweep.Attr("batch_size", strconv.Itoa(len(live)))
	}
	var before obs.PhaseSnapshot
	rec := ws.Recorder()
	if sweep != nil {
		before = rec.Snapshot()
	}
	sweepStart := time.Now()
	outs, err := b.infer(ws, live)
	if sweep != nil {
		rtrace.FoldPhases(sweep, sweepStart, rec.Snapshot().Delta(before))
		sweep.SetError(err)
		sweep.Finish()
	}
	if err != nil {
		// A sweep only fails by panicking; dump the flight recorder so
		// the traces leading up to the poisoned batch survive the report.
		b.opts.Log.WithTrace(traceIDOf(sweep)).Error("serve: sweep failed",
			"err", err, "batch", len(live))
		if b.opts.Tracer != nil {
			w := b.opts.TraceDumpWriter
			if w == nil {
				w = os.Stderr
			}
			b.opts.Tracer.DumpTo(w)
		}
	}
	for i, p := range live {
		if err != nil {
			p.done <- outcome{err: err}
		} else {
			p.done <- outcome{out: outs[i]}
		}
	}
}

// traceIDOf renders a span's trace id, "" on nil.
func traceIDOf(sp *rtrace.Span) string {
	if sp == nil {
		return ""
	}
	return sp.TraceID().String()
}

// infer runs one batched sweep with panic isolation: a poisoned request
// (state corrupted to a shape the kernels reject, a bug in the sweep)
// fails its group with an error instead of crashing the server, and the
// worker's arena is reset because a mid-kernel panic can strand or
// alias its buffers.
func (b *batcher) infer(ws *tensor.Workspace, live []*pending) (outs []model.InferOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			ws.Reset()
			err = fmt.Errorf("serve: inference panic: %v", r)
		}
	}()
	seqs := make([]model.InferSeq, len(live))
	for i, p := range live {
		seqs[i] = p.seq
	}
	return b.net.InferBatch(ws, seqs)
}

// drain stops admission and waits (bounded by ctx) for every already
// admitted request to complete. It is idempotent; only the first call
// closes the queue.
func (b *batcher) drain(ctx context.Context) error {
	b.mu.Lock()
	wasClosed := b.closed
	b.closed = true
	b.mu.Unlock()
	if !wasClosed {
		close(b.in)
	}
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
