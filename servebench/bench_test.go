package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric tables and
// workloads this command implements.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	// The gated workloads are a subset of the command's: wire-lruindex stays
	// runnable by name, and its rows are priced inside every traced run.
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json gates %d workloads, want at least 2", len(bf.Workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, the command reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, want %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the command reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, want %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// smokeRun runs one short invocation and returns its exit code, its output
// and the parsed result line.
func smokeRun(t *testing.T, workload, traceFlag string) (int, string, result) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "2", "--trace", traceFlag}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s --trace %s: last line is not a result: %v\n%s", workload, traceFlag, err, out.String())
	}
	return code, out.String(), res
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric is printed with its unit, that no value read back was
// wrong, and that the traced ledger closes within its tolerance.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, tr := range []string{"0", "1"} {
			t.Run(w+"/trace="+tr, func(t *testing.T) {
				code, out, res := smokeRun(t, w, tr)
				// A two-second run on a busy host may see its generator
				// lag past the bound; that marks the run invalid, which is
				// the behaviour under test, not a smoke failure. Wrong
				// values never are.
				if strings.Contains(out, "WRONG VALUES") {
					t.Fatalf("wrong values:\n%s", out)
				}
				if !res.Correct && !strings.Contains(out, "INVALID: generator lag") {
					t.Fatalf("exit %d, incorrect result:\n%s", code, out)
				}
				if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := endToEnd
				if tr == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("%s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s = %v", m.name, got.Value)
					}
				}
				if tr == "0" {
					for _, m := range want {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
						}
					}
					return
				}
				if r := res.Metrics["ledger.residual_ratio"].Value; math.Abs(r) > ledgerTolerance {
					t.Errorf("ledger.residual_ratio = %.3f, tolerance ±%.2f\n%s", r, ledgerTolerance, out)
				}
				if res.Metrics["fail.wrong_values"].Value != 0 {
					t.Errorf("fail.wrong_values = %v", res.Metrics["fail.wrong_values"].Value)
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cluster-hot", "--seconds", "0"},
		{"--workload", "cluster-hot", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v printed a result", args)
		}
	}
}

func TestWindowedPct(t *testing.T) {
	// Three windows of 100: two calm, one with a stall in it. The median
	// window's p99 ignores the stall; the overall p99 does not.
	var v samples
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			x := int64(i + 1)
			if w == 1 && i >= 90 {
				x = 1_000_000
			}
			v = append(v, x)
		}
	}
	got, wins := windowedPct(v, 100, 0.99, nil)
	if wins != 3 || got != 99 {
		t.Errorf("windowedPct = %v over %d windows, want 99 over 3", got, wins)
	}
	if p := v.pct(0.99); p != 1_000_000 {
		t.Errorf("overall p99 = %d", p)
	}
	if v[0] != 1 || v[100+95] != 1_000_000 {
		t.Error("pct reordered its samples")
	}
}

func TestInflightFIFO(t *testing.T) {
	f := newInflight(8)
	f.push(0, 5)
	f.push(1, 7)
	f.push(2, 5)
	if got := f.pop(5); got != 0 {
		t.Errorf("first pop of key 5 = %d, want 0", got)
	}
	if got := f.pop(5); got != 2 {
		t.Errorf("second pop of key 5 = %d, want 2", got)
	}
	if got := f.pop(5); got != -1 {
		t.Errorf("pop of a drained key = %d, want -1", got)
	}
	if got := f.pop(7); got != 1 {
		t.Errorf("pop of key 7 = %d, want 1", got)
	}
}
