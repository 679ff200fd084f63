// Command benchcheck gates the scoring hot path against performance
// regressions using benchjson output (see cmd/benchjson).
//
// Raw ns/op numbers are useless across machines — a laptop baseline
// would "regress" on every slower CI runner. So the gate is the
// RATIO between two benchmarks from the same run: the pruned top-k
// scoring path and its exhaustive oracle. The ratio is a
// machine-independent measure of how much work pruning saves; it is
// compared against an absolute floor (-min-speedup, the repo's
// advertised speedup) and against the committed baseline's ratio
// (-max-regress, the fraction of that ratio allowed to erode).
//
//	go test -bench TopKScoring -benchtime=50x -run '^$' . \
//	  | go run ./cmd/benchjson > /tmp/topk.json
//	go run ./cmd/benchcheck -current /tmp/topk.json -baseline BENCH.json \
//	  -fast 'BenchmarkTopKScoring/pruned/k=10' \
//	  -slow 'BenchmarkTopKScoring/exhaustive/k=10'
//
// With -allocs it instead gates a benchmark's allocs/op against an
// absolute ceiling (-max-allocs). Allocation counts — unlike ns/op —
// are machine-independent, so an absolute gate is meaningful: the
// benchmark must have been run with -benchmem for benchjson to carry
// the metric.
//
//	go test -bench TopKAllocs -benchmem -run '^$' ./internal/ir \
//	  | go run ./cmd/benchjson > /tmp/allocs.json
//	go run ./cmd/benchcheck -allocs /tmp/allocs.json \
//	  -alloc-bench 'BenchmarkTopKAllocs' -max-allocs 12
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// result mirrors benchjson's output shape.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	current := flag.String("current", "", "benchjson file of the run under test (required)")
	baseline := flag.String("baseline", "", "benchjson file of the committed baseline (optional)")
	fast := flag.String("fast", "BenchmarkTopKScoring/pruned/k=10", "benchmark whose ns/op should be small")
	slow := flag.String("slow", "BenchmarkTopKScoring/exhaustive/k=10", "benchmark whose ns/op anchors the ratio")
	minSpeedup := flag.Float64("min-speedup", 2.0, "fail when slow/fast falls below this ratio")
	maxRegress := flag.Float64("max-regress", 0.20, "fail when the ratio erodes by more than this fraction vs the baseline")
	allocs := flag.String("allocs", "", "gate a benchjson file's allocs/op instead of a ns/op ratio")
	allocBench := flag.String("alloc-bench", "BenchmarkTopKAllocs", "benchmark whose allocs/op is gated by -max-allocs")
	maxAllocs := flag.Float64("max-allocs", 12, "fail when the -alloc-bench benchmark allocates more than this many objects per op")
	flag.Parse()
	if *allocs != "" {
		if checkAllocs(*allocs, *allocBench, *maxAllocs) {
			os.Exit(1)
		}
		fmt.Println("benchcheck: ok")
		return
	}
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -current is required")
		os.Exit(2)
	}

	curRatio, err := ratioFrom(*current, *fast, *slow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fmt.Printf("benchcheck: current %s/%s speedup = %.2fx\n", *slow, *fast, curRatio)
	failed := false
	if curRatio < *minSpeedup {
		fmt.Printf("benchcheck: FAIL: speedup %.2fx is below the %.2fx floor\n", curRatio, *minSpeedup)
		failed = true
	}
	if *baseline != "" {
		baseRatio, err := ratioFrom(*baseline, *fast, *slow)
		switch {
		case err != nil:
			// A baseline that predates these benchmarks is not an error:
			// the absolute floor still gates the run.
			fmt.Printf("benchcheck: baseline has no usable ratio (%v); floor check only\n", err)
		default:
			floor := baseRatio * (1 - *maxRegress)
			fmt.Printf("benchcheck: baseline speedup = %.2fx (allowed floor %.2fx)\n", baseRatio, floor)
			if curRatio < floor {
				fmt.Printf("benchcheck: FAIL: scoring-path speedup regressed more than %.0f%%\n", *maxRegress*100)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

// checkAllocs gates a benchmark's allocs/op against an absolute
// ceiling; returns true on failure. Allocation counts are exact on a
// steady-state benchmark, so unlike the ns/op gates no baseline or
// ratio is involved — the committed ceiling IS the budget.
func checkAllocs(path, bench string, maxAllocs float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return true
	}
	var results []result
	if err := json.Unmarshal(raw, &results); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		return true
	}
	// Among repetitions, take the highest allocs/op: warm-up effects
	// only ever hide allocations (a pool hit where steady state would
	// miss), so the maximum is the honest measurement.
	worst, found := 0.0, false
	for i := range results {
		r := &results[i]
		if r.Name != bench {
			continue
		}
		v, ok := r.Metrics["allocs/op"]
		if !ok {
			continue
		}
		found = true
		if v > worst {
			worst = v
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no benchmark %q with an allocs/op metric (was it run with -benchmem?)\n", path, bench)
		return true
	}
	fmt.Printf("benchcheck: %s allocs/op = %.1f (budget %.1f)\n", bench, worst, maxAllocs)
	if worst > maxAllocs {
		fmt.Printf("benchcheck: FAIL: %s allocates %.1f objects/op, budget is %.1f\n", bench, worst, maxAllocs)
		return true
	}
	return false
}

// ratioFrom loads a benchjson file and returns slow.ns/op ÷ fast.ns/op.
func ratioFrom(path, fast, slow string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var results []result
	if err := json.Unmarshal(raw, &results); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	// A file may carry the same benchmark at several -benchtime settings
	// (the committed baseline appends a longer top-k pass to the 1x
	// sweep); prefer the entries with the most iterations — the least
	// noisy measurement. Among repetitions at that same iteration count
	// (a -count=N run), take the fastest: each repetition's ns/op is
	// the true cost plus nonnegative scheduling noise, so the minimum
	// is the most robust estimator on a shared CI runner.
	ns := func(name string) (float64, error) {
		var maxIter int64 = -1
		best := 0.0
		for i := range results {
			r := &results[i]
			if r.Name != name {
				continue
			}
			v, ok := r.Metrics["ns/op"]
			if !ok || v <= 0 {
				continue
			}
			switch {
			case r.Iterations > maxIter:
				maxIter, best = r.Iterations, v
			case r.Iterations == maxIter && v < best:
				best = v
			}
		}
		if maxIter < 0 {
			return 0, fmt.Errorf("%s: no benchmark %q with positive ns/op", path, name)
		}
		return best, nil
	}
	f, err := ns(fast)
	if err != nil {
		return 0, err
	}
	s, err := ns(slow)
	if err != nil {
		return 0, err
	}
	return s / f, nil
}
