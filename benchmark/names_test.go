package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"freewayml/internal/serve"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// synthetic builds a run of every request kind for report tests.
func syntheticSenders(w *workload) []*sender {
	s := &sender{w: w, gstats: map[int]serve.StatsResponse{}}
	for i := 0; i < 40; i++ {
		s.outs = append(s.outs, outcome{labeled: i%2 == 0, ok: true, rows: w.batch, latMS: float64(i), rtMS: float64(i), bytes: 100})
	}
	s.gstats[0] = serve.StatsResponse{GAcc: 0.9, SI: 0.8}
	return []*sender{s}
}

// Every metric the benchmark prints is named and unit-ed within the
// contract's limits and listed, with the same unit, in BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		ss := syntheticSenders(w)
		e2e, err := e2eReport(io.Discard, w, &runResult{setup: []time.Duration{time.Second}, senders: ss, elapsed: time.Second}, gateResult{})
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, w.name+" end-to-end", e2e.Metrics, spec.EndToEnd)

		rp := &replayResult{table: newTraceTable(), stageMS: map[string]float64{}, stageRuns: map[string]int{},
			strategies: map[string]int{}, patterns: map[string]int{}, processMS: []float64{1}}
		root := &span{name: "request", ms: 2}
		root.child("serve.transport", 1)
		rp.table.add(root)
		var p probes
		for _, kc := range kernelCalls(w) {
			p.kernels = append(p.kernels, kernelRow{kernelCall: kc, ns: 1, calls: 1})
		}
		layer, err := layerReport(io.Discard, w, ss, ss, rp, serverCounters{}, []hopSample{{1, 1}}, p)
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, w.name+" per-layer", layer.Metrics, spec.PerLayer)
	}
}

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	var names []string
	for n, m := range got {
		names = append(names, n)
		if !nameRE.MatchString(n) {
			t.Errorf("%s: metric name %q breaks [A-Za-z0-9_.-]+ (64 max)", what, n)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: metric %q unit %q is not a valid unit", what, n, m.Unit)
		}
		if u, ok := units[n]; !ok {
			t.Errorf("%s: metric %q is not in BENCHMARK.json", what, n)
		} else if u != m.Unit {
			t.Errorf("%s: metric %q unit %q, BENCHMARK.json says %q", what, n, m.Unit, u)
		}
	}
	if len(got) != len(want) {
		sort.Strings(names)
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d: %v", what, len(got), len(want), names)
	}
}
