package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// header records what was measured on what, so two documents can be
// told apart and a run repeated.
type header struct {
	NProc       int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	SourceHash  string  `json:"source_state"`
	Fingerprint string  `json:"corpus_fingerprint"`
	Instances   int     `json:"instances_requested"`
	CorpusSeed  int     `json:"corpus_seed"`
	Seed        int64   `json:"workload_seed"`
	Seconds     float64 `json:"window_seconds"`
	WideQueries int     `json:"wide_queries"`
	HeadQueries int     `json:"head_queries"`
}

// document is the machine-readable result of one invocation. Claim is
// always null: the benchmark measures, it claims no gain.
type document struct {
	Header    header             `json:"header"`
	Workloads []*runResult       `json:"workloads"`
	Second    []*runResult       `json:"second_run,omitempty"`
	AA        []aaRow            `json:"aa,omitempty"`
	Layers    map[string]float64 `json:"traced_layers,omitempty"`
	Claim     *string            `json:"claim"`
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "qunitsd benchmark: nproc=%d %s commit=%s state=%s\n", h.NProc, h.GoVersion, h.Commit, h.SourceHash)
	fmt.Fprintf(w, "corpus: instances>=%d seed=%d fingerprint=%s; workload seed=%d: %d wide queries, %d head queries; window %gs\n",
		h.Instances, h.CorpusSeed, h.Fingerprint, h.Seed, h.WideQueries, h.HeadQueries, h.Seconds)
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return "fraction" // error_share; p99_ms is printed with its unit spelled out
}

func printResult(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n%s\n", r.Workload)
	fmt.Fprintf(w, "  %-26s %12.4f %-10s (window, %d ops attempted)\n", "qps", r.EndToEnd["qps"], unitOf("qps"), r.Attempted)
	fmt.Fprintf(w, "  %-26s %12.4f %-10s (%d samples)\n", "p50_ms", r.EndToEnd["p50_ms"], "ms", r.Samples)
	fmt.Fprintf(w, "  %-26s %12.4f %-10s (%d samples)\n", "p95_ms", r.EndToEnd["p95_ms"], "ms", r.Samples)
	fmt.Fprintf(w, "  %-26s %12.4f %-10s (%d samples)\n", "p99_ms", r.EndToEnd["p99_ms"], "ms", r.Samples)
	fmt.Fprintf(w, "  %-26s %12.4f %-10s (median of %d boots: %s)\n", "setup_s", r.EndToEnd["setup_s"], "s", len(r.SetupRuns), joinFloats(r.SetupRuns, "%.3f"))
	fmt.Fprintf(w, "  %-26s %12.6f %-10s (%d failed of %d)\n", "error_share", r.EndToEnd["error_share"], "fraction", r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-26s %s (spread %.1f%%, drift %+.1f%%)\n", "qps per slice", joinFloats(r.SliceQPS, "%.0f"), 100*spread(r.SliceQPS), 100*drift(r.SliceQPS))
	for _, name := range sortedKeys(r.Layer) {
		fmt.Fprintf(w, "  %-26s %12.4f %s\n", name, r.Layer[name], unitOf(name))
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  flag: %s\n", f)
	}
	for _, f := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", f)
	}
}

func printLayers(w io.Writer, layers map[string]float64) {
	fmt.Fprintf(w, "\ntraced run (in-process, one goroutine)\n")
	for _, d := range perLayer {
		if v, ok := layers[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

func joinFloats(values []float64, format string) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func allCorrect(results []*runResult) bool {
	for _, r := range results {
		if len(r.Invalid) > 0 {
			return false
		}
	}
	return true
}

// contractMetric and contractResult are the four-key object the driver
// reads from the last line of a one-workload run.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contractLine reports the end-to-end metrics of an untraced run, or
// every per-layer metric of a traced one: those seen from inside this
// process plus those read from the workload's children.
func contractLine(r *runResult, layers map[string]float64, traced bool) contractResult {
	out := contractResult{Correct: len(r.Invalid) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	if !traced {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = contractMetric{r.EndToEnd[d.Name], d.Unit}
		}
		return out
	}
	for _, d := range perLayer {
		v, ok := layers[d.Name]
		if !ok {
			v = r.Layer[d.Name]
		}
		out.Metrics[d.Name] = contractMetric{v, d.Unit}
	}
	return out
}

// aaRow compares one end-to-end metric of one workload between two runs
// of the same code.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Diff     float64 `json:"relative_difference"`
	Bound    float64 `json:"bound"`
	// Verdict is "unchanged" within the bound, "unresolved" within the
	// bound but with a within-run spread wider than the bound (the run
	// cannot resolve a change that small), "differs" beyond it.
	Verdict string `json:"verdict"`
}

func compareAA(first, second []*runResult) []aaRow {
	var rows []aaRow
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			// What a run can resolve is limited by its own spread: across
			// the window's slices, or across the boots for setup_s.
			noise := math.Max(spread(a.SliceQPS), spread(b.SliceQPS))
			if d.Name == "setup_s" {
				noise = math.Max(spread(a.SetupRuns), spread(b.SetupRuns))
			}
			row := aaRow{Workload: a.Workload, Metric: d.Name, First: a.EndToEnd[d.Name], Second: b.EndToEnd[d.Name], Bound: d.Bound}
			if row.First != 0 {
				row.Diff = (row.Second - row.First) / row.First
			}
			switch {
			case math.Abs(row.Diff) > d.Bound:
				row.Verdict = "differs"
			case noise > d.Bound:
				row.Verdict = "unresolved"
			default:
				row.Verdict = "unchanged"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func aaAgrees(rows []aaRow) bool {
	for _, r := range rows {
		if r.Verdict == "differs" {
			return false
		}
	}
	return true
}

func printAA(w io.Writer, rows []aaRow) {
	fmt.Fprintf(w, "\nA/A: two runs of the same code\n")
	fmt.Fprintf(w, "  %-10s %-8s %12s %12s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-8s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", r.Workload, r.Metric, r.First, r.Second, 100*r.Diff, 100*r.Bound, r.Verdict)
	}
}
