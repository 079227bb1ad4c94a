package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json this test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryWorkloadReportsEveryMetric runs each workload at reduced size,
// untraced and traced, and checks that the result line names every metric
// of BENCHMARK.json with its unit and that every output check passed.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// Reduced sizes: small studies and one cluster per live pass.
	fig1cShape = simShape{instances: 2, flows: 120, flowSlack: 0.1, k: 8, workers: 2}
	fig1aShape = simShape{instances: 2, flows: 2000, k: 8, trials: 8, workers: 2}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%s: output checks failed:\n%s", w.Name, trace, out.String())
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%s: attempted %d", w.Name, trace, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestProfileAttribution checks the profile parser on a profile of known
// work: a busy loop in this package must be attributed to it.
func TestProfileAttribution(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin()
	st, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.total <= 0 || st.byPkg["perfbench"] < st.total/2 {
		t.Errorf("perfbench self time %v of %v total, want most of it", st.byPkg["perfbench"], st.total)
	}
}

var spinSink uint64

func spin() {
	x := uint64(1)
	for i := 0; i < 400_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
