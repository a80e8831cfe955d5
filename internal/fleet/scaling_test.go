package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"etalstm/internal/serve"
)

// TestFleetScalingNearLinear is the fleet's anti-regression bound:
// under Zipf(1.1) session skew, 4 replicas must serve at least 3.2x
// the throughput of one. Replicas are capacity-bound fakes (one request
// at a time, fixed 3ms service), and throughput is read on their
// virtual clock: a replica that served k requests was busy k·3ms, so
// the fleet's speedup over one replica is its request count over the
// busiest replica's count. That bounds routing balance — how evenly the
// router spreads load when a hot session pins ~19% of sticky traffic to
// one replica — and not how 64 load clients, the router and four
// servers share this machine's CPUs, which moved the wall-clock ratio
// by ±10%. The stateless majority spreads by digest with a
// power-of-two-choices load tiebreak, which is what pulls the hot
// replica's share down below 1/3.2. Router concurrency is bounded
// separately: a router that forwarded one request at a time could not
// beat one replica's 1/3ms in wall-clock throughput.
func TestFleetScalingNearLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("multi-second load run; -race slows it several-fold")
	}
	if testing.Short() {
		t.Skip("multi-second load run")
	}

	const service = 3 * time.Millisecond
	fakes := make([]*fakeReplica, 4)
	for i := range fakes {
		fakes[i] = newFakeReplica(t, 1, service)
	}
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		Target:      hs.URL,
		Concurrency: 64,
		Requests:    600,
		SeqLen:      2,
		Sessions:    512,
		ZipfS:       1.1,
		SessionFrac: 0.15,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("%d errors, %d rejected — scaling number is meaningless", rep.Errors, rep.Rejected)
	}
	if rt.errs.Value() != 0 {
		t.Fatalf("router recorded %d exhausted requests", rt.errs.Value())
	}
	total, busiest := 0, 0
	served := make([]int, len(fakes))
	for i, f := range fakes {
		served[i] = f.count()
		total += served[i]
		busiest = max(busiest, served[i])
	}
	speedup := float64(total) / float64(busiest)
	t.Logf("4 replicas: served %v, speedup %.2fx over one (wall: %s)", served, speedup, rep)
	if speedup < 3.2 {
		t.Fatalf("4-replica speedup %.2fx under Zipf(1.1) skew, want >= 3.2x", speedup)
	}
	if single := 1 / service.Seconds(); rep.RPS < 1.5*single {
		t.Fatalf("4 replicas served %.0f rps wall-clock, want >= 1.5x one replica's %.0f (router serializing?)", rep.RPS, single)
	}
}
