package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the copy of the benchmark's
// definition the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTheProgram keeps BENCHMARK.json and the Go
// tables in step, and within the driver's limits.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, program has %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program, or their reasons differ", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s has %d characters or a line break", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
}

func sampleResult(name string) *runResult {
	return &runResult{
		Workload:  name,
		EndToEnd:  map[string]float64{"qps": 455.25, "p50_ms": 3.9, "p95_ms": 9.75, "p99_ms": 15.125, "setup_s": 6.5, "error_share": 0},
		Layer:     map[string]float64{"server.cache_hit_ratio": 0.013, "server.dedup_shared": 2, "server.rss_mb": 620.5, "driver.lateness_p99_ms": 0.02, "driver.inflight_max": 2},
		Samples:   9105,
		Attempted: 9169,
		SetupRuns: []float64{6.4, 6.6},
		SliceQPS:  []float64{450, 460, 455, 452, 459},
		Flags:     []string{},
		Invalid:   []string{},
	}
}

// TestDocumentRoundTrips: the JSON document survives a round trip,
// names every workload and end-to-end metric of BENCHMARK.json, and
// ends with "claim": null.
func TestDocumentRoundTrips(t *testing.T) {
	f := readBenchmarkFile(t)
	doc := document{Header: header{NProc: 2, Seed: 1, Seconds: 20}, Layers: map[string]float64{}}
	for _, w := range f.Workloads {
		doc.Workloads = append(doc.Workloads, sampleResult(w.Name))
	}
	for _, d := range f.PerLayer {
		doc.Layers[d.Name] = 1.5
	}
	encoded := mustJSON(doc)
	if !strings.HasSuffix(string(encoded), `"claim":null}`) {
		t.Errorf("document does not end with \"claim\":null: ...%s", encoded[len(encoded)-40:])
	}
	var back document
	if err := json.Unmarshal(encoded, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Error("document changed in a JSON round trip")
	}
	for i, w := range f.Workloads {
		for _, d := range f.EndToEnd {
			if _, ok := back.Workloads[i].EndToEnd[d.Name]; !ok {
				t.Errorf("workload %s lacks %s", w.Name, d.Name)
			}
		}
	}
}

// TestContractLine: an untraced run reports exactly the end-to-end
// metrics, a traced one exactly the per-layer metrics, under the four
// keys the driver reads.
func TestContractLine(t *testing.T) {
	r := sampleResult("cold")
	layers := map[string]float64{}
	for _, d := range perLayer {
		if _, fromChildren := r.Layer[d.Name]; !fromChildren {
			layers[d.Name] = 2.5
		}
	}
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(mustJSON(contractLine(r, layers, tc.traced)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("contract line has keys %v", line)
		}
		var metrics map[string]contractMetric
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("traced=%v: %d metrics, want %d", tc.traced, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == 0 {
				t.Errorf("traced=%v: metric %s is %+v", tc.traced, d.Name, m)
			}
		}
	}
	r.Invalid = []string{"cache hit ratio out of range"}
	if contractLine(r, nil, false).Correct {
		t.Error("an invalid run reported correct")
	}
}

func TestCompareAA(t *testing.T) {
	a, b := sampleResult("cold"), sampleResult("cold")
	b.EndToEnd["qps"] = a.EndToEnd["qps"] * 0.95      // within the 10 % bound
	b.EndToEnd["p95_ms"] = a.EndToEnd["p95_ms"] * 1.3 // beyond the bound
	rows := compareAA([]*runResult{a}, []*runResult{b})
	verdicts := map[string]string{}
	for _, r := range rows {
		verdicts[r.Metric] = r.Verdict
	}
	if verdicts["qps"] != "unchanged" || verdicts["p95_ms"] != "differs" || aaAgrees(rows) {
		t.Errorf("verdicts %v, agrees %v", verdicts, aaAgrees(rows))
	}
	b.EndToEnd["p95_ms"] = a.EndToEnd["p95_ms"]
	b.SliceQPS = []float64{400, 460, 455, 452, 520} // slices 26 % apart: wider than every bound
	b.SetupRuns = []float64{5.6, 7.4}               // and so are the boots
	rows = compareAA([]*runResult{a}, []*runResult{b})
	for _, r := range rows {
		if r.Verdict != "unresolved" {
			t.Errorf("%s: verdict %q with noisy slices, want unresolved", r.Metric, r.Verdict)
		}
	}
	if !aaAgrees(rows) {
		t.Error("unresolved rows must not fail the A/A gate")
	}
}
