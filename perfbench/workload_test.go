package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/workload"
)

func TestArrivalSchedule(t *testing.T) {
	const span = 20 * time.Second
	a, err := arrivalSchedule(7, ingestRate, span)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := arrivalSchedule(7, ingestRate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c, _ := arrivalSchedule(8, ingestRate, span); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	want := ingestRate * span.Seconds()
	if n := float64(len(a)); math.Abs(n-want) > 0.03*want {
		t.Errorf("%d arrivals in %v at %g/s, want about %g", len(a), span, ingestRate, want)
	}
	var kinds [3]int
	for i, x := range a {
		if x.due < 0 || x.due >= span || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: out of order or outside [0, %v)", i, x.due, span)
		}
		kinds[x.kind]++
		switch x.kind {
		case opSubmit:
			var spec workload.JobSpec
			dec := json.NewDecoder(bytes.NewReader(x.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatalf("arrival %d body: %v", i, err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("arrival %d spec: %v", i, err)
			}
		case opStatus:
			if x.pick < 0 || x.pick >= 1 {
				t.Fatalf("arrival %d pick %v outside [0, 1)", i, x.pick)
			}
		}
	}
	for k, share := range ingestShares {
		if got := float64(kinds[k]) / float64(len(a)); math.Abs(got-share) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", opNames[k], got, share)
		}
	}
}

func TestPlanBatches(t *testing.T) {
	a, err := planBatches(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := planBatches(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different batches")
	}
	jobs := map[int]int{}
	for _, x := range a {
		for i, in := range x.insts {
			if in.ID != i {
				t.Fatalf("instance %d has ID %d", i, in.ID)
			}
		}
		jobs[len(x.insts)] += len(x.insts)
	}
	for _, n := range planSizes {
		if jobs[n] != planJobsPerSize {
			t.Errorf("%d jobs in batches of %d, want %d", jobs[n], n, planJobsPerSize)
		}
	}
	if len(jobs) != len(planSizes) {
		t.Errorf("batch sizes %v, want %v", jobs, planSizes)
	}
}

// TestTracedEpochMatchesPlanEpoch checks the traced run's premise: its
// layer-by-layer calls reproduce PlanEpoch bit for bit.
func TestTracedEpochMatchesPlanEpoch(t *testing.T) {
	mcfg, err := planMachine()
	if err != nil {
		t.Fatal(err)
	}
	mem := memsys.Default()
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: mcfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	opts := online.Options{Cfg: mcfg, Mem: mem, Char: char, Cap: planCapW, Policy: online.PolicyHCSPlus, Seed: 1}
	batches, err := planBatches(5)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st := &planLayerStats{allocB: map[string]uint64{}}
	for i, b := range batches[:3] { // one batch of 64, two of 8
		ep, err := online.PlanEpoch(opts, b.insts, b.seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEpoch(ep, len(b.insts)); err != nil {
			t.Fatal(err)
		}
		tep, _, err := tracedEpoch(tr, opts, b, "e", st)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameEpoch(ep, tep); err != nil {
			t.Errorf("batch %d: %v", i, err)
		}
	}
	spans := tr.snapshot()
	if want := 3 * (1 + len(planLayers)); len(spans) != want {
		t.Errorf("%d spans, want %d", len(spans), want)
	}
	if st.jobs != 64+8+8 || st.hitQ == 0 {
		t.Errorf("layer stats: %+v", st)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables of this
// command in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	pairs := func(xs []struct{ Name, Unit string }) [][2]string {
		out := make([][2]string, len(xs))
		for i, x := range xs {
			out[i] = [2]string{x.Name, x.Unit}
		}
		return out
	}
	if got := pairs(spec.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", got, e2eMetrics)
	}
	if got := pairs(spec.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, want %v", got, layerMetrics)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, want %v", names, want)
	}
}
