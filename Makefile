GO ?= go

# Budget per fuzz target for `make fuzz` (go test -fuzztime syntax).
FUZZTIME ?= 30s

.PHONY: build test race bench bench-smoke vet fmt fma check fuzz cover serve-smoke obs-smoke longseq-smoke dist-smoke fleet-smoke trace-smoke all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with real concurrency: the
# trainer and its replica step loop, the public API
# (whose tests exercise multi-worker training end to end), the
# workspace-threaded FW/BP stack (lstm kernels + model), where replica
# confinement of the scratch arenas is the thing under test, the MS2
# planner, the differential harness (whose equivalence engine runs
# serial and concurrent replicas against each other), the serving
# subsystem (micro-batcher, session table, graceful drain), the
# telemetry layer (concurrent registry, per-replica span recorders),
# the checkpoint planner whose placements the replicas recompute
# under concurrently, the distributed gradient transport (reader
# goroutines handing decode buffers to the coordinator's merge loop),
# the fleet router (concurrent forwarding, prober-driven membership
# churn, hot-swap rolls under load), the request tracer (spans
# finishing on worker goroutines while HTTP handlers read the ring),
# and the checkpoint codec (loaded and digested from reload handlers
# while sweeps run). The InferBatch tests run again at GOMAXPROCS 1, 2
# and 4: the layer wavefront's handoff must hold with fewer, as many
# and more threads than layers.
race:
	$(GO) test -race ./internal/core ./internal/tensor ./internal/lstm ./internal/model ./internal/check ./internal/skip ./internal/train ./internal/serve ./internal/obs ./internal/memplan ./internal/dist ./internal/fleet ./internal/rtrace ./internal/persist .
	$(GO) test -race -cpu 1,2,4 -run 'TestInferBatch' ./internal/model

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke vets and tests the benchmark's nested Go module
# (perfbench/, which imports this one through a replace directive):
# every workload runs briefly, traced and untraced, with its
# correctness checks, including the bitwise loss mirrors of the
# trainer. `go build ./...` and `go test ./...` at the root skip the
# nested module, so this is the only gate that compiles it.
bench-smoke:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# fuzz runs every Fuzz* target for FUZZTIME each (Go allows one target
# per invocation). -fuzzminimizetime=1x keeps the budget spent on
# exploration instead of input minimization.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzMatMulBitwise -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/compress
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzGradCheck -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzEquivalence -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointed -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzSparseBackward -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzSparseDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/compress
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzGradientDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/dist

# cover enforces statement-coverage floors on the numerically critical
# packages. Floors sit a few points below current coverage: they catch a
# PR that deletes tests or lands large untested code, without turning
# every small change into a floor-tuning exercise.
cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		ok=$$(awk "BEGIN{print ($$pct >= $$2) ? 1 : 0}"); \
		if [ "$$ok" != 1 ]; then echo "cover: $$1 at $$pct% is below the $$2% floor"; exit 1; fi; \
		echo "cover: $$1 $$pct% (floor $$2%)"; \
	}; \
	check ./internal/tensor 86; \
	check ./internal/lstm 85; \
	check ./internal/model 85; \
	check ./internal/core 85; \
	check ./internal/train 85; \
	check ./internal/skip 90; \
	check ./internal/serve 65; \
	check ./internal/obs 85; \
	check ./internal/memplan 90; \
	check ./internal/dist 85; \
	check ./internal/compress 85; \
	check ./internal/fleet 85; \
	check ./internal/rtrace 85; \
	check ./internal/persist 80

# serve-smoke is the end-to-end serving check: checkpoint -> etaserve
# on an ephemeral port -> loadgen burst -> graceful drain, all through
# the real binary paths (cmd/etaserve's run seam).
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./cmd/etaserve

# obs-smoke is the end-to-end telemetry check: a training run with
# -metrics-addr on an ephemeral port is scraped over HTTP until the
# MS1 prune-ratio gauge shows up in the Prometheus text output.
obs-smoke:
	$(GO) test -run TestObsSmoke -v ./cmd/etatrain

# longseq-smoke is the end-to-end memory-budget check: a seqlen-4096
# byte-level LM run under a quarter-of-peak budget that provably cannot
# hold full storage, asserted to stay under budget via the measured
# peak-stored-bytes report.
longseq-smoke:
	$(GO) test -run TestLongSeqSmoke -v ./cmd/etatrain

# dist-smoke is the end-to-end distributed-training check: a gradient
# coordinator plus two compressed workers over loopback, asserted to
# form a session, converge, and report their bytes-on-wire accounting.
dist-smoke:
	$(GO) test -run TestDistSmoke -v ./cmd/etatrain

# fleet-smoke is the end-to-end horizontal-serving check: three
# replicas behind etarouter (real binary paths via cmd/etarouter's run
# seam), a Zipf-skewed load burst, one replica killed mid-run with
# zero surfaced errors after ejection settles, and a checkpoint
# hot-swap rolled across the survivors under load with zero dropped
# requests.
fleet-smoke:
	$(GO) test -run TestFleetSmoke -v ./cmd/etarouter

# trace-smoke is the end-to-end tracing check: two traced replicas
# behind etarouter (real binary paths), a loadgen burst minting
# traceparents, one minted id resolved at the router into a
# cross-process span tree (router → replica → sweep → phase), and a
# SIGQUIT dump of the router's flight recorder asserted.
trace-smoke:
	$(GO) test -run TestTraceSmoke -v ./cmd/etarouter

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# fma fails if a package whose results must be bitwise equal on every
# GOARCH contains a fused multiply-add. The Go spec lets a compiler fuse
# x*y + z into one rounding unless an explicit float32(...) or
# float64(...) conversion rounds the product first. amd64 never fuses,
# so the check cross-compiles each package for the three targets that
# do and disassembles its archive, which holds only non-test code.
# s390x's disassembler prints GNU mnemonics (MAEBR, MADBR, ...), hence
# the longer pattern. Every kernel package is covered: rng, train,
# tensor, lstm, model and compress round each product that feeds an add
# explicitly (skip, dist and reorder fuse nothing without it).
# tensor's amd64 assembly is not in
# the cross-compiled archives, so its source is searched for the FMA3
# mnemonics instead: its kernels must round each product alone.
FMA_PKGS = rng train tensor lstm model compress
FMA_ARCHS = arm64 ppc64le s390x
FMA_ASM = internal/tensor/*_amd64.s
fma:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; bad=0; \
	if grep -nE '\<VF(N?MADD|N?MSUB|NM)[0-9A-Z]*' $(FMA_ASM); then \
		echo "fma: fused multiply-add in $(FMA_ASM)"; bad=1; \
	fi; \
	for arch in $(FMA_ARCHS); do \
		for pkg in $(FMA_PKGS); do \
			GOARCH=$$arch $(GO) build -o "$$tmp/$$pkg.a" ./internal/$$pkg; \
			out=$$($(GO) tool objdump "$$tmp/$$pkg.a" | awk -v pkg="etalstm/internal/$$pkg." \
				'/^TEXT /{fn = $$2; next} \
				index(fn, pkg) == 1 && $$4 ~ /^(FN?M(ADD|SUB)|V?FML[AS]|[VW]FN?M[AS]|X[SV]N?M(ADD|SUB)|M[AS][DE]BR?$$)/ {print fn ": " $$0}'); \
			if [ -n "$$out" ]; then echo "fma: fused multiply-add in $$pkg on $$arch:"; echo "$$out"; bad=1; fi; \
		done; \
	done; \
	if [ $$bad != 0 ]; then exit 1; fi; \
	echo "fma: no fused multiply-add in $(FMA_PKGS) on $(FMA_ARCHS) or in $(FMA_ASM)"

# check is the pre-commit gate: vet + formatting + build + tests +
# the fused-multiply-add check + the benchmark module's smoke run.
check: vet fmt build test fma bench-smoke
