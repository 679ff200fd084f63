package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEndToEnd runs the -smoke configuration for real: it builds
// qunitsd, prepares the 3k-instance snapshot and probe answers, boots
// cold, hot-rw and cluster as child processes, drives them, runs the
// traced pass, and checks the documents it leaves behind.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots qunitsd processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	code, err := run(root, options{workload: "all", seed: 1, seconds: 1, trace: 1, smoke: true, out: out, stdout: io.Discard})
	if err != nil || code != 0 {
		t.Fatalf("smoke run: exit %d, %v", code, err)
	}
	var doc document
	data, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(smokeWorkloads) {
		t.Fatalf("%d workloads ran, want %d", len(doc.Workloads), len(smokeWorkloads))
	}
	for i, r := range doc.Workloads {
		if r.Workload != smokeWorkloads[i] || r.Failed != 0 || r.Samples == 0 || len(r.Invalid) != 0 {
			t.Errorf("%s: %d failed, %d samples, invalid %v", r.Workload, r.Failed, r.Samples, r.Invalid)
		}
		for _, d := range endToEnd {
			if r.EndToEnd[d.Name] <= 0 {
				t.Errorf("%s: %s = %v", r.Workload, d.Name, r.EndToEnd[d.Name])
			}
		}
	}
	for _, d := range perLayer {
		_, traced := doc.Layers[d.Name]
		_, fromChildren := doc.Workloads[0].Layer[d.Name]
		if !traced && !fromChildren {
			t.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	var trace traceDoc
	data, err = os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if want := trace.Requests * spansPerRequest; len(trace.Spans) != want {
		t.Errorf("%d spans for %d requests, want %d", len(trace.Spans), trace.Requests, want)
	}
	logs, _ := filepath.Glob(filepath.Join(out, "logs", "*.log"))
	if len(logs) == 0 {
		t.Error("no child logs kept")
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp-*")); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}
