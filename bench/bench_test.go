package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the driver's view of the benchmark, at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// BENCHMARK.json and the tables in metrics.go must name the same metrics
// with the same units, directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}
}

// Every workload, at toy size, through the code path the full run takes:
// the run is correct and reports exactly BENCHMARK.json's metrics for its
// mode, each finite.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, mode := range []struct {
			name  string
			trace bool
			want  []jsonMetric
		}{{"untraced", false, b.EndToEnd}, {"traced", true, b.PerLayer}} {
			t.Run(w.Name+"/"+mode.name, func(t *testing.T) {
				res, err := runWorkload(w.Name, &options{seed: 7, toy: true, trace: mode.trace, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.notes)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					case v.Unit != m.Unit:
						t.Errorf("%s in %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					case !mode.trace && v.Value == 0:
						t.Errorf("%s is 0", m.Name)
					}
				}
			})
		}
	}
}

// The engine ≡ cluster check must fire when the two disagree: flip one
// reference parameter and the run is no longer correct.
func TestCorruptedReferenceFails(t *testing.T) {
	res, err := runWorkload("compute-mlp", &options{seed: 7, toy: true, corruptReference: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d with a corrupted reference", res.Correct, res.Failed)
	}
}

func TestChosenWorker(t *testing.T) {
	// CR(n, 4) with workers 0..7 down: chosen workers 9, 13 and 20 recover
	// 9..16 and 20..23; the wrapped window of worker n−2 recovers 0, 1.
	parts := []int{0, 1, 9, 10, 11, 12, 13, 14, 15, 16, 20, 21, 22, 23, 98, 99}
	for k, want := range map[int]int{2: 9, 5: 9, 6: 13, 9: 13, 10: 20, 13: 20, 15: 98} {
		if got, ok := chosenWorker(parts, k, 4, 8); !ok || got != want {
			t.Errorf("parts[%d]=%d: chosen worker %d (ok=%v), want %d", k, parts[k], got, ok, want)
		}
	}
	if _, ok := chosenWorker(parts, 1, 4, 8); ok {
		t.Error("a run that wraps around n must be skipped")
	}
}
