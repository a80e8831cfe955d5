// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each invocation runs one workload in its own process:
//
//	perfbench --workload train_dense --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics on the program's
// default settings; with --trace 1 it makes a separate traced run that
// times calls into each runtime layer from this package's own code and
// reports the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The line
// before it records the provenance of the result (seed, machine, and the
// speed of a reference loop at the start and end of the run).
//
// Run it through run.sh from the repository root, which builds this
// package with every build artefact kept under .bench_build/. A run
// whose checks fail prints its result and exits 1; a run that cannot
// complete prints no result and exits 2, with the cause on stderr.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"etalstm"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run accumulates: its operation and
// check counts, the metrics it reports, and the spans a traced run
// records.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// start is when the run began; every phase's deadline is measured
	// from it, so a run ends close to its window whatever it does.
	start time.Time
	// dir is the run's private scratch directory inside the checkout.
	dir string

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	spans             *spanLog
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one operation (a training step or a request) and whether
// it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// check counts one output check; a failed check is a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check failed: "+format, args...))
}

// at returns the instant a share frac of the run's window after its
// start.
func (r *run) at(frac float64) time.Time {
	return r.start.Add(time.Duration(frac * r.seconds * float64(time.Second)))
}

// span returns a share frac of the run's window as a duration.
func (r *run) span(frac float64) time.Duration {
	return time.Duration(frac * r.seconds * float64(time.Second))
}

// workloads maps each workload name to its untraced and traced runner.
var workloads = map[string]struct{ plain, traced func(*run) error }{
	"train_dense": {trainDense, trainDenseTraced},
	"train_eta":   {trainEta, trainEtaTraced},
	"train_sync":  {trainSync, trainSyncTraced},
	"serve_mixed": {serveMixed, serveMixedTraced},
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	res, prov, err := execute(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	pj, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintln(w, string(pj))
	fmt.Fprintln(w, string(rj))
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// execute parses the flags, runs one workload and assembles its result.
func execute(args []string, stderr io.Writer) (result, map[string]any, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: train_dense, train_eta, train_sync or serve_mixed")
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics; 1 makes the traced run and reports the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for run scratch files and span logs")
	if err := fs.Parse(args); err != nil {
		return result{}, nil, err
	}
	wl, ok := workloads[*name]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return result{}, nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	r := &run{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dir:     filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
		metrics: map[string]metric{},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(r.dir)
	prov := provenance(r)
	gflopsStart := machineGFLOPS()
	runner := wl.plain
	if r.traced {
		runner = wl.traced
		r.spans = newSpanLog()
	}
	r.start = time.Now()
	if err := runner(r); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", r.workload, err)
	}
	gflopsEnd := machineGFLOPS()
	prov["machine_gflops_start"] = gflopsStart
	prov["machine_gflops_end"] = gflopsEnd
	if r.traced {
		r.set("bench.machine_gflops", "GFLOP/s", (gflopsStart+gflopsEnd)/2)
		fillPerLayer(r)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.spans.write(path, prov); err != nil {
			return result{}, nil, err
		}
	} else if _, ok := r.metrics["peak_rss_mb"]; !ok {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, nil, fmt.Errorf("%s: metric %s is %v", r.workload, name, m.Value)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench:", p)
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, prov, nil
}

// provenance records what a result depends on besides the code: the
// workload seed and the machine it ran on.
func provenance(r *run) map[string]any {
	return map[string]any{
		"workload":       r.workload,
		"seed":           r.seed,
		"seconds":        r.seconds,
		"trace":          r.traced,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"kernel_workers": etalstm.Workers(),
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// machineSink keeps the reference loop's result live.
var machineSink float32

// machineGFLOPS times a fixed reference loop the benchmark owns — a
// naive 64×64 float32 matrix product, no program code — and returns
// the median speed of five samples. It runs at the start and the end
// of every run, so drift in the machine's speed between and within
// runs shows in the results.
func machineGFLOPS() float64 {
	const n, reps = 64, 40
	a, b, c := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		b[i] = float32(i%5) * 0.5
	}
	per := make([]float64, 5)
	for s := range per {
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					row, out := b[k*n:k*n+n], c[i*n:i*n+n]
					for j := range out {
						out[j] += aik * row[j]
					}
				}
			}
		}
		per[s] = 2 * n * n * n * reps / time.Since(t0).Seconds() / 1e9
	}
	machineSink += c[n*n-1]
	return median(per)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (vs is not modified).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
