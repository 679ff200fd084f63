// Command benchmark is the one benchmark qunitsd changes are judged by.
//
// It builds cmd/qunitsd once, boots real qunitsd child processes per
// workload, drives them over HTTP from this process with one client
// goroutine and one keep-alive connection per CPU, records raw latency
// samples, checks the answers against the in-process engine, and prints
// every metric by name with its unit plus one JSON document. A traced
// run (-trace 1) adds the per-layer numbers. See README.md for the
// metric, workload and prediction tables.
//
//	bash benchmark/run.sh -seed 1                  # all six workloads, 20 s windows
//	bash benchmark/run.sh -seed 1 -trace 1         # the same, plus the traced run
//	bash benchmark/run.sh -aa                      # the suite twice, compared with the bounds
//	bash benchmark/run.sh -smoke                   # 3k instances, 1 s windows, three workloads
//	bash benchmark/run.sh --workload hot --seed 7 --seconds 8 --trace 0   # one workload, as the driver runs it
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"qunits/internal/synth"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	smoke    bool
	out      string
	stdout   io.Writer
}

func main() {
	o := options{stdout: os.Stdout}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the only thing that changes which queries are sent")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window per workload, in seconds; warm-up is a fixed share on top (default 20, or 1 with -smoke)")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "run the suite twice on the same code and compare the two with the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "harness check: 3k instances, 1 s windows, cold + hot-rw + cluster")
	flag.StringVar(&o.out, "out", "", "output directory for logs, result.json and trace.json (default .bench_build/out)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "cmd", "qunitsd"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (cmd/qunitsd must be there):", err)
		os.Exit(2)
	}
	code, err := run(root, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// smokeWorkloads are the three the -smoke configuration runs: a fresh
// build, the mutating mix, and the multi-process topology.
var smokeWorkloads = []string{"cold", "hot-rw", "cluster"}

// run executes one invocation and returns its exit code. Every child is
// stopped and the temporary directory removed on every path out,
// signals included.
func run(root string, o options) (int, error) {
	buildDir := filepath.Join(root, ".bench_build")
	if o.out == "" {
		o.out = filepath.Join(buildDir, "out")
	}
	logDir := filepath.Join(o.out, "logs")
	for _, dir := range []string{buildDir, logDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	tmpDir, err := os.MkdirTemp(buildDir, "tmp-")
	if err != nil {
		return 0, err
	}
	fl := &fleet{logDir: logDir}
	cleanup := func() {
		fl.killAll()
		os.RemoveAll(tmpDir)
	}
	defer cleanup()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	returned := make(chan struct{})
	defer close(returned)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-sigs:
			cleanup()
			os.Exit(130)
		case <-returned:
		}
	}()

	instances, volume := corpusInstances, logVolume
	selected := workloadNames()
	if o.smoke {
		instances, volume, selected = smokeInstances, smokeLogVolume, smokeWorkloads
	}
	if o.seconds == 0 {
		o.seconds = 20
		if o.smoke {
			o.seconds = 1
		}
	}
	if o.workload != "all" {
		if _, ok := workloadByName(o.workload); !ok {
			return 0, fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		selected = []string{o.workload}
	}

	u, err := generateUniverse(instances)
	if err != nil {
		return 0, err
	}
	prep, err := prepare(ctx, root, buildDir, logDir, instances, volume, u)
	if err != nil {
		return 0, err
	}
	fl.bin = prep.qunitsd
	qs, err := deriveQuerySets(u, o.seed, volume)
	if err != nil {
		return 0, err
	}
	nproc := runtime.GOMAXPROCS(0)
	e := &env{
		nproc:     nproc,
		instances: instances,
		seed:      o.seed,
		window:    time.Duration(o.seconds * float64(time.Second)),
		prep:      prep,
		qs:        qs,
		targets:   deriveMutationTargets(u),
		fleet:     fl,
		load:      newHTTPClient(nproc),
		control:   newHTTPClient(4),
	}
	head := header{
		NProc:       nproc,
		GoVersion:   runtime.Version(),
		Commit:      gitCommit(root),
		SourceHash:  filepath.Base(prep.dir),
		Fingerprint: fmt.Sprintf("%016x", synth.Fingerprint(u.DB)),
		Instances:   instances,
		CorpusSeed:  corpusSeed,
		Seed:        o.seed,
		Seconds:     o.seconds,
		WideQueries: len(qs.wide),
		HeadQueries: len(qs.head),
	}
	printHeader(o.stdout, head)

	suite := func() ([]*runResult, error) {
		var results []*runResult
		for _, name := range selected {
			spec, _ := workloadByName(name)
			if o.trace == 1 {
				spec.boots = 1 // a traced run reports no setup_s, so it boots once
			}
			res, err := runWorkload(ctx, e, spec)
			if err != nil {
				return nil, fmt.Errorf("workload %s: %w", name, err)
			}
			printResult(o.stdout, res)
			results = append(results, res)
		}
		return results, nil
	}
	results, err := suite()
	if err != nil {
		return 0, err
	}
	doc := document{Header: head, Workloads: results}
	ok := allCorrect(results)
	if o.aa {
		second, err := suite()
		if err != nil {
			return 0, err
		}
		doc.Second = second
		doc.AA = compareAA(results, second)
		printAA(o.stdout, doc.AA)
		ok = ok && allCorrect(second) && aaAgrees(doc.AA)
	}
	if o.trace == 1 {
		requests, repeats := traceRequests, traceRepeats
		if o.smoke {
			requests, repeats = traceRequests/10, traceRepeats/10
		}
		layers, err := traceLayers(ctx, instances, o.seed, qs, e.targets, tmpDir, o.out, requests, repeats)
		if err != nil {
			return 0, fmt.Errorf("traced run: %w", err)
		}
		doc.Layers = layers
		printLayers(o.stdout, layers)
	}
	if err := os.WriteFile(filepath.Join(o.out, "result.json"), mustJSON(doc), 0o644); err != nil {
		return 0, err
	}
	if len(selected) == 1 && !o.aa {
		// One workload is how the driver runs the benchmark: the last
		// line is its four-key result object.
		fmt.Fprintln(o.stdout, string(mustJSON(contractLine(results[0], doc.Layers, o.trace == 1))))
	} else {
		fmt.Fprintln(o.stdout, string(mustJSON(doc)))
	}
	if !ok {
		return 1, nil
	}
	return 0, nil
}

// gitCommit names the commit under test; a checkout that is not a git
// repository (the driver's) reports "unknown" and is identified by its
// source hash instead.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
