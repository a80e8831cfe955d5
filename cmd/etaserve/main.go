// Command etaserve serves a trained checkpoint for inference over
// HTTP+JSON with dynamic micro-batching: concurrent requests coalesce
// into dense batched sweeps through a worker pool sharing the
// checkpoint's weights read-only (see DESIGN.md §9).
//
// Usage:
//
//	etatrain -bench TREC-10 -epochs 4 -save net.ckpt
//	etaserve -ckpt net.ckpt -addr :8080
//	curl -d '{"inputs": [[0.1, ...]]}' http://localhost:8080/v1/infer
//
// The embedded load generator drives a running server with synthetic
// traffic and reports throughput and latency quantiles:
//
//	etaserve -loadgen -target http://localhost:8080 -conc 64 -n 2048
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"etalstm/internal/obs"
	"etalstm/internal/persist"
	"etalstm/internal/rtrace"
	"etalstm/internal/serve"
)

func main() {
	// SIGINT/SIGTERM trigger a graceful drain: stop accepting, finish
	// every admitted request, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "etaserve:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to w, failures return instead of exiting.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("etaserve", flag.ContinueOnError)
	var (
		ckpt     = fs.String("ckpt", "", "checkpoint file to serve (required unless -loadgen)")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		window   = fs.Duration("window", 0, "how long a lone request waits for batch company (0 = dispatch as soon as a worker is free)")
		maxBatch = fs.Int("max-batch", 0, "micro-batch size cap (0 = 32)")
		queue    = fs.Int("queue", 0, "admission queue capacity (0 = 8x max-batch)")
		workers  = fs.Int("workers", 0, "sweep worker pool size (0 = derive from CPU count)")
		ttl      = fs.Duration("session-ttl", 0, "idle session eviction age (0 = 5m)")
		timeout  = fs.Duration("timeout", 0, "per-request deadline (0 = 5s)")
		pprofOn  = fs.Bool("pprof", false, "mount /debug/pprof/ profiling handlers (exposes internals; keep off on open ports)")
		adminOn  = fs.Bool("admin", false, "mount POST /v1/admin/reload for checkpoint hot-swap (lets callers name server-side paths; trusted ports only)")
		traceOn  = fs.Bool("trace", true, "record request traces in the flight recorder at GET /debug/traces; SIGQUIT dumps it to stderr")

		loadgen    = fs.Bool("loadgen", false, "generate load against -target instead of serving")
		target     = fs.String("target", "http://127.0.0.1:8080", "loadgen: server base URL")
		conc       = fs.Int("conc", 0, "loadgen: concurrent clients (0 = 32)")
		n          = fs.Int("n", 0, "loadgen: total requests (0 = 512)")
		seq        = fs.Int("seq", 0, "loadgen: timesteps per request (0 = 8)")
		sessions   = fs.Int("sessions", 0, "loadgen: spread requests over this many session ids")
		zipf       = fs.Float64("zipf", 0, "loadgen: Zipf skew exponent over session ranks (0 = uniform round-robin)")
		sessFrac   = fs.Float64("session-frac", 0, "loadgen: fraction of requests carrying a session id (0 = 1.0)")
		seed       = fs.Uint64("seed", 1, "loadgen: input seed")
		traceEvery = fs.Int("trace-every", 0, "loadgen: mint a sampled traceparent on every Nth request; the report lists sample trace ids resolvable at the target's /debug/traces (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *loadgen {
		rep, err := serve.RunLoad(ctx, serve.LoadOptions{
			Target: *target, Concurrency: *conc, Requests: *n,
			SeqLen: *seq, Sessions: *sessions, ZipfS: *zipf,
			SessionFrac: *sessFrac, Seed: *seed, TraceEvery: *traceEvery,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep)
		return nil
	}

	if *ckpt == "" {
		return fmt.Errorf("-ckpt is required (or use -loadgen)")
	}
	// The loader verifies the file against its content digest; handing
	// that digest to the server spares a second encode-and-hash.
	net_, digest, err := persist.LoadFileDigest(*ckpt)
	if err != nil {
		return err
	}
	cfg := net_.Cfg
	sopts := serve.Options{
		MaxBatch: *maxBatch, Window: *window, QueueCap: *queue, Workers: *workers,
		SessionTTL: *ttl, RequestTimeout: *timeout, EnablePprof: *pprofOn,
		EnableAdmin: *adminOn, Log: obs.NewLogger(os.Stderr),
	}
	if *traceOn {
		sopts.Tracer = rtrace.New(rtrace.Options{Process: "etaserve"})
		defer sopts.Tracer.DumpOnSignal(os.Stderr)()
	}
	s := serve.New(net_, digest, sopts)
	if *pprofOn {
		fmt.Fprintln(w, "pprof enabled under /debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving %s (H=%d LN=%d out=%d, %v)\n",
		*ckpt, cfg.Hidden, cfg.Layers, cfg.OutSize, cfg.Loss)
	fmt.Fprintf(w, "listening on http://%s\n", ln.Addr())

	err = s.Serve(ctx, ln)
	st := s.Stats()
	fmt.Fprintf(w, "drained: %d completed, %d rejected, %d failed, mean batch %.1f, p50 %.2fms p99 %.2fms\n",
		st.Completed, st.Rejected, st.Failed, st.MeanBatch, st.LatencyP50Ms, st.LatencyP99Ms)
	return err
}
