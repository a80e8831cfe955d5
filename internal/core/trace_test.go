package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
)

// withTracer installs a process-default tracer for the test and
// restores the disabled state afterwards.
func withTracer(t *testing.T, opts rtrace.Options) *rtrace.Tracer {
	t.Helper()
	prev := rtrace.Default()
	tr := rtrace.New(opts)
	rtrace.SetDefault(tr)
	t.Cleanup(func() { rtrace.SetDefault(prev) })
	return tr
}

// TestSerialEpochStepTraces checks the serial trainer emits one
// "train.step" span per optimizer step with the FW/BP phase wall time
// folded in as children — without RecordPhases being set, since an
// installed tracer alone must activate phase recording.
func TestSerialEpochStepTraces(t *testing.T) {
	rec := withTracer(t, rtrace.Options{Process: "trainer"})
	bench, prov := scaledBench(t, "IMDB")
	tr := newTrainer(t, bench, Config{EnableMS1: true}, 1)
	if _, err := tr.RunEpoch(context.Background(), prov, 0); err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans()
	steps := make(map[string]rtrace.SpanData) // span id -> step span
	for _, sd := range spans {
		if sd.Name == "train.step" {
			steps[sd.SpanID.String()] = sd
		}
	}
	if len(steps) != prov.NumBatches() {
		t.Fatalf("recorded %d train.step spans, want %d", len(steps), prov.NumBatches())
	}
	// Every step span carries its batch index and owns phase children.
	phaseKids := make(map[string]map[string]bool) // parent span id -> phase names
	for _, sd := range spans {
		if _, ok := steps[sd.Parent.String()]; ok && sd.Name != "train.step" {
			m := phaseKids[sd.Parent.String()]
			if m == nil {
				m = make(map[string]bool)
				phaseKids[sd.Parent.String()] = m
			}
			m[sd.Name] = true
		}
	}
	for id, sd := range steps {
		batch := ""
		for _, a := range sd.Attrs {
			if a.Key == "batch" {
				batch = a.Value
			}
		}
		if _, err := strconv.Atoi(batch); err != nil {
			t.Fatalf("train.step span lacks a batch attr: %+v", sd.Attrs)
		}
		kids := phaseKids[id]
		if !kids[obs.PhaseFW.String()] {
			t.Fatalf("step span %s has no %s phase child (children: %v)", id, obs.PhaseFW, kids)
		}
		if !kids[obs.PhaseOptimizer.String()] {
			t.Fatalf("step span %s has no %s phase child (children: %v)", id, obs.PhaseOptimizer, kids)
		}
	}
}

// TestParallelEpochStepTraces checks the data-parallel engine's group
// steps trace too: one span per optimizer step (batch group), with
// per-replica phase children and the coordinator-side all-reduce fold.
func TestParallelEpochStepTraces(t *testing.T) {
	rec := withTracer(t, rtrace.Options{Process: "trainer"})
	bench, prov := scaledBench(t, "IMDB")
	tr := newTrainer(t, bench, Config{}, 1)
	tr.Workers = 2
	if _, err := tr.RunEpoch(context.Background(), prov, 0); err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans()
	var stepIDs []rtrace.SpanID
	for _, sd := range spans {
		if sd.Name == "train.step" {
			stepIDs = append(stepIDs, sd.SpanID)
		}
	}
	wantGroups := (prov.NumBatches() + 1) / 2
	if len(stepIDs) != wantGroups {
		t.Fatalf("recorded %d group step spans, want %d", len(stepIDs), wantGroups)
	}
	// At least one step span must carry a per-replica FW phase child for
	// each of the two replicas.
	replicas := make(map[string]bool)
	for _, sd := range spans {
		if sd.Name != obs.PhaseFW.String() {
			continue
		}
		for _, a := range sd.Attrs {
			if a.Key == "replica" {
				replicas[a.Value] = true
			}
		}
	}
	if !replicas["0"] || !replicas["1"] {
		t.Fatalf("per-replica FW phase children missing (saw replicas %v)", replicas)
	}
}

// TestStepPhaseClosure checks every train.step span's phase children
// fit inside it, at one replica and at two. Replicas run concurrently,
// so the bound holds per replica lane: that replica's FW/BP children
// plus the coordinator-side (all-reduce, optimizer) children, which
// run after the join. Replica 0 is the master network, whose recorder
// also carries the coordinator phases; folding its FW/BP a second time
// as coordinator work would overshoot the step.
func TestStepPhaseClosure(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			rec := withTracer(t, rtrace.Options{Process: "trainer"})
			bench, prov := scaledBench(t, "IMDB")
			tr := newTrainer(t, bench, Config{EnableMS1: true}, 1)
			tr.Workers = workers
			if _, err := tr.RunEpoch(context.Background(), prov, 0); err != nil {
				t.Fatal(err)
			}
			spans := rec.Spans()
			steps := make(map[rtrace.SpanID]rtrace.SpanData)
			for _, sd := range spans {
				if sd.Name == "train.step" {
					steps[sd.SpanID] = sd
				}
			}
			if len(steps) == 0 {
				t.Fatal("no train.step spans recorded")
			}
			// lanes[step][replica] sums a replica's phase children; the
			// "" lane holds the coordinator-side children.
			lanes := make(map[rtrace.SpanID]map[string]time.Duration)
			for _, sd := range spans {
				if _, ok := steps[sd.Parent]; !ok {
					continue
				}
				lane := ""
				for _, a := range sd.Attrs {
					if a.Key == "replica" {
						lane = a.Value
					}
				}
				if lanes[sd.Parent] == nil {
					lanes[sd.Parent] = make(map[string]time.Duration)
				}
				lanes[sd.Parent][lane] += sd.Duration
			}
			for id, step := range steps {
				l := lanes[id]
				if l[""] == 0 {
					t.Fatalf("step %v has no coordinator-side phase children", step.Attrs)
				}
				for lane, d := range l {
					if lane == "" {
						continue
					}
					if sum := d + l[""]; sum > step.Duration {
						t.Errorf("step %v: replica %s phases + coordinator phases = %v exceed the step's %v",
							step.Attrs, lane, sum, step.Duration)
					}
				}
			}
		})
	}
}
