package main

import (
	"context"
	"math"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// serveMixedTraced is serve_mixed's traced run. After the same set-up
// the lone client sends the mix three times: untraced through the HTTP
// handler (its latencies, and the baseline for the tracing overhead),
// traced through the handler, and traced through Server.Infer directly.
// The difference between the last two is the HTTP layer's cost; direct
// InferBatch calls on the same sequences split Infer into batcher wait
// and model compute. An untraced saturating closed loop (capacity), an
// open loop at the nominal rate and a rate ladder to the latency limit
// follow.
func serveMixedTraced(r *run) error {
	srv, net, in, _, loads, err := prepareServe(r)
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	c := newClient(srv.Handler(), in)
	countOps(r, c.warm(), false)

	plain := c.lone(r.at(0.12))
	countOps(r, plain, false)
	c.spans = r.spans
	traced := c.lone(r.at(0.22))
	countOps(r, traced, false)
	c.direct = srv
	direct := c.lone(r.at(0.3))
	countOps(r, direct, false)
	c.spans, c.direct = nil, nil
	capacity, sat := c.closedLoop(satClients, max(time.Until(r.at(0.45)), time.Second))
	countOps(r, sat, false)
	nominal, late := c.phase(in.schedule(nominalRate, r.span(0.1)))
	countOps(r, nominal, false)
	atLimit, ladder, err := c.ladder(r, max(r.span(0.05), 500*time.Millisecond), r.at(0.88))
	r.op(err)
	all := append(append(append(append(append(append([]sample(nil), plain...), traced...), direct...), sat...), nominal...), ladder...)
	if err := checkOutputs(r, net, in, all, c.sessions); err != nil {
		return err
	}

	st := srv.Stats()
	plainLat, sessLat := latencies(plain)
	tracedLat, _ := latencies(traced)
	nominalLat, _ := latencies(nominal)
	handler := inside(traced)
	infer := inside(direct)
	lat := median(tracedLat)

	// InferBatch alone on the direct phase's stateless sequences, one at
	// a time as the lone client sent them: Infer less this is the time a
	// request waits in the batcher.
	ws := tensor.NewWorkspace()
	var alone []float64
	for _, s := range direct {
		if s.session < 0 && len(alone) < 256 {
			seq := []model.InferSeq{{Inputs: in.stateless[s.req]}}
			t0 := time.Now()
			mustInferBatch(net, ws, seq)
			alone = append(alone, ms(time.Since(t0)))
		}
	}
	k := int(math.Max(1, math.Round(st.MeanBatch)))
	reqs := make([]model.InferSeq, k)
	for i := range reqs {
		reqs[i] = model.InferSeq{Inputs: in.stateless[i]}
	}
	batch := ms(timeCall(func() { mustInferBatch(net, ws, reqs) }))

	r.set("serve.mean_batch", "count", st.MeanBatch)
	r.set("serve.rejected_frac", "ratio", float64(st.Rejected)/float64(st.Submitted))
	r.set("serve.req_per_s", "1/s", capacity)
	r.set("serve.lat_ms_p50", "ms", bestMedian(plainLat, loneChunks))
	r.set("serve.lat_ms_p90", "ms", quantile(plainLat, 0.9))
	r.set("serve.session_ms_p50", "ms", median(sessLat))
	r.set("serve.nominal_ms_p90", "ms", quantile(nominalLat, 0.9))
	r.set("serve.rps_at_slo", "1/s", atLimit)
	r.set("serve.infer_ms_p50", "ms", infer)
	r.set("serve.wait_ms", "ms", infer-median(alone))
	r.set("serve.http_us", "us", (handler-infer)*1000)
	r.set("serve.unattributed_pct", "%", 100*(lat-handler)/lat)
	r.set("model.infer_batch_ms", "ms", batch)
	r.set("persist.load_ms", "ms", median(loads))
	r.set("bench.trace_overhead_pct", "%", 100*(lat/median(plainLat)-1))
	r.set("bench.gen_late_ms_max", "ms", ms(late))
	reportArena(r, ws)

	probeTensor(r, k, in.cfg.Hidden)
	x0 := randMatrix(rng.New(r.seed), k, in.cfg.InputSize)
	probeInferCell(r, net, newCellInputs(net, x0, r.seed))
	return nil
}

// mustInferBatch runs one direct batch; the same sequences were served
// successfully before it is called, so a failure is a bug.
func mustInferBatch(net *model.Network, ws *tensor.Workspace, seqs []model.InferSeq) {
	if _, err := net.InferBatch(ws, seqs); err != nil {
		panic(err)
	}
}

// inside returns the median time, in ms, that a phase's successful
// stateless requests spent inside the server call (handler or Infer).
func inside(samples []sample) float64 {
	var v []float64
	for _, s := range samples {
		if s.err == nil && s.session < 0 {
			v = append(v, ms(s.handler))
		}
	}
	return median(v)
}
