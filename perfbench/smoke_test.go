package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The smoke tests run every workload at a tiny size, untraced and
// traced, and check the output checks pass and the printed metric set
// matches BENCHMARK.json. Run them from this directory: go test .

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func tinySizes() sizes {
	sv := defaultServeSizes()
	sv.ModelPop, sv.ModelGen, sv.ModelMC = 16, 8, 12
	sv.Models, sv.Tenants, sv.MaxModels, sv.Pool = 4, 2, 2, 64
	sv.LoQPS, sv.HiQPS, sv.Rounds = 300, 600, 1
	sv.ProbeWindow = 300 * time.Millisecond
	sv.WarmUp = 50 * time.Millisecond
	sv.ControlEvery = 100 * time.Millisecond
	return sizes{
		flow: flowSizes{Pop: 8, Gen: 6, MC: 12, Pilots: 3, FrontTarget: 6, Inputs: 2, Workers: 2},
		design: designSizes{ModelSeed: 1, ModelPop: 16, ModelGen: 8, ModelMC: 12, VerifySamples: 24,
			FilterPop: 8, FilterGen: 5, FilterSamples: 12, Workers: 2, Tasks: 2, TracedTasks: 2, ProbeTasks: 2},
		serve: sv,
	}
}

func runTiny(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	e := &env{seed: seed, seconds: 600 * time.Millisecond, trace: trace, out: t.TempDir(), sz: tinySizes(), rep: newReport()}
	if err := runWorkload(e, workload); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return e.rep
}

func TestWorkloadsSmoke(t *testing.T) {
	e2e, layer := loadBenchFile(t)
	for _, w := range []string{"flow", "design", "serve"} {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(w+map[bool]string{false: "", true: "_traced"}[trace], func(t *testing.T) {
				rep := runTiny(t, w, 3, trace)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d notes=%q", rep.Correct, rep.Failed, rep.Attempted, rep.notes)
				}
				// Every workload prints exactly the declared set.
				declared := e2e
				if trace {
					declared = layer
				}
				for name, m := range rep.Metrics {
					unit, ok := declared[name]
					if !ok {
						t.Errorf("printed metric %s is not declared in BENCHMARK.json", name)
					} else if unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range declared {
					if _, ok := rep.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
			})
		}
	}
}

// TestSameSeedAgrees runs the flow twice in one output directory: the
// second run must reproduce the first one's model, and a tampered
// record must fail the check.
func TestSameSeedAgrees(t *testing.T) {
	out := t.TempDir()
	run := func() *report {
		e := &env{seed: 5, seconds: time.Millisecond, out: out, sz: tinySizes(), rep: newReport()}
		if err := runFlowWorkload(e); err != nil {
			t.Fatal(err)
		}
		return e.rep
	}
	if r := run(); !r.Correct {
		t.Fatalf("first run: %q", r.notes)
	}
	if r := run(); !r.Correct {
		t.Fatalf("second run disagrees: %q", r.notes)
	}
	e := &env{out: out}
	if err := agreeAcrossRuns(e, "k", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := agreeAcrossRuns(e, "k", []string{"a"}); err != nil {
		t.Fatalf("prefix of a recorded run must agree: %v", err)
	}
	if err := agreeAcrossRuns(e, "k", []string{"a", "c"}); err == nil {
		t.Fatal("a differing output was accepted")
	}
}

func TestPairMeansAndQuantile(t *testing.T) {
	if got := pairMeans([]float64{1, 3, 2, 4, 9}); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("pairMeans = %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}
