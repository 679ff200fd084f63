package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// openLoopRate is cold-open's fixed arrival rate: about a third of what
// cold sustains on the 2-core reference box.
const openLoopRate = 150

// Validity limits: a run outside them measured something other than
// what the workload is defined to measure.
const (
	missMaxHitRatio = 0.05 // cold, cold-open, batch, cluster: the cache must not help
	hitMinHitRatio  = 0.99 // hot: the engine must not be reached
	maxLatenessMs   = 5.0  // cold-open: the generator must keep its schedule
	minP99Samples   = 1000 // below this the 99th percentile has fewer than ten samples beyond it
	resultCacheSize = 1024 // qunitsd's default -cache, which every child runs with
)

// env is what every workload of one invocation shares.
type env struct {
	nproc     int
	instances int
	seed      int64
	window    time.Duration
	prep      *prepared
	qs        *querySets
	targets   mutationTargets
	fleet     *fleet
	load      *http.Client // the measured traffic
	control   *http.Client // health, stats, probes, verification
}

// workloadSpec defines one workload: how its processes boot, what
// traffic they get, and which validity rules apply.
type workloadSpec struct {
	name string
	why  string
	// warmShare is the unrecorded warm-up as a share of the window.
	warmShare float64
	// boots is how many times the topology is booted and timed; setup_s
	// is the median. Fresh builds are booted fewer times because each
	// costs seconds of the run budget.
	boots int
	// topology starts the children and returns the one traffic goes to.
	topology func(e *env) (*proc, []*proc, error)
	// openRate, when set, makes the workload an open loop at that rate.
	openRate float64
	// traffic returns the request generator for a target base URL.
	traffic func(e *env, base string) func(*client) op
	// batchProbes sends the probe set as batches instead of singles.
	batchProbes bool
	// hitRatio is the range the result-cache hit ratio must fall in.
	hitRatio [2]float64
	// verifyRing checks, after the window, that every acknowledged add
	// is readable and every acknowledged delete is gone.
	verifyRing bool
}

func (e *env) instancesFlag() []string {
	return []string{"-instances", strconv.Itoa(e.instances), "-seed", strconv.Itoa(corpusSeed)}
}

func singleNode(extra func(e *env) []string) func(e *env) (*proc, []*proc, error) {
	return func(e *env) (*proc, []*proc, error) {
		p, err := e.fleet.start("single", append(e.instancesFlag(), extra(e)...)...)
		if err != nil {
			return nil, nil, err
		}
		return p, []*proc{p}, nil
	}
}

func freshBuild(*env) []string   { return nil }
func copyLoad(e *env) []string   { return []string{"-snapshot", e.prep.snapshot} }
func mappedLoad(e *env) []string { return []string{"-snapshot", e.prep.snapshot, "-mmap"} }

// clusterTopology boots two static partition nodes, each building the
// full corpus at the same time, and a coordinator over them.
func clusterTopology(e *env) (*proc, []*proc, error) {
	var parts []*proc
	for i := 0; i < 2; i++ {
		p, err := e.fleet.start(fmt.Sprintf("partition%d", i), append(e.instancesFlag(),
			"-mode", "partition", "-shards", "2",
			"-partition-index", strconv.Itoa(i), "-partition-count", "2")...)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, p)
	}
	coord, err := e.fleet.start("coordinator", "-mode", "coordinator",
		"-partitions", parts[0].url+","+parts[1].url)
	if err != nil {
		return nil, nil, err
	}
	return coord, append(parts, coord), nil
}

func searchOp(base string, body []byte) op {
	return op{method: http.MethodPost, url: base + "/v1/search", body: body,
		wantStatus: http.StatusOK, weight: 1, search: true}
}

func wideTraffic(e *env, base string) func(*client) op {
	return func(c *client) op { return searchOp(base, e.qs.bodies[e.qs.drawWide(c.rng)]) }
}

func headTraffic(e *env, base string) func(*client) op {
	return func(c *client) op { return searchOp(base, e.qs.bodies[e.qs.drawHead(c.rng)]) }
}

var batchItemMarker = []byte(`"response":`)

func batchTraffic(e *env, base string) func(*client) op {
	// Every item must carry a response; an item error carries none.
	allAnswered := func(body []byte) bool { return bytes.Count(body, batchItemMarker) == batchSize }
	return func(c *client) op {
		c.scratch = e.qs.batchBody(c.rng, c.scratch)
		o := searchOp(base, c.scratch)
		o.weight = batchSize
		o.valid = allAnswered
		return o
	}
}

// readWriteTraffic is head traffic in which 2 % of operations mutate the
// engine: 1 % feedback with alternating sign, 0.5 % delete of a ring
// instance and 0.5 % re-add of the same instance. Each client cycles
// its own share of the ring, delete before add, so the live count never
// differs from the corpus by more than one per client.
func readWriteTraffic(e *env, base string) func(*client) op {
	head := headTraffic(e, base)
	return func(c *client) op {
		if c.state == nil {
			c.state = map[string]bool{}
			c.ringPos = c.id
		}
		switch n := c.ops % 200; {
		case n%100 == 50:
			id := e.targets.feedback[(c.ops/100*e.nproc+c.id)%len(e.targets.feedback)]
			body := mustJSON(map[string]any{"instance_id": id, "positive": c.ops/100%2 == 0})
			return op{method: http.MethodPost, url: base + "/v1/feedback", body: body, wantStatus: http.StatusOK, weight: 1}
		case n == 25:
			anchor := e.targets.ring[c.ringPos%len(e.targets.ring)]
			return op{method: http.MethodDelete, url: base + "/v1/instances/" + url.PathEscape(ringID(anchor)),
				wantStatus: http.StatusOK, weight: 1,
				after: func(ok bool) {
					if ok {
						c.state[anchor] = false
					}
				}}
		case n == 125:
			anchor := e.targets.ring[c.ringPos%len(e.targets.ring)]
			c.ringPos += e.nproc
			body := mustJSON(map[string]string{"definition": ringDefinition, "anchor": anchor})
			return op{method: http.MethodPost, url: base + "/v1/instances", body: body, wantStatus: http.StatusCreated, weight: 1,
				after: func(ok bool) {
					if ok {
						c.state[anchor] = true
					}
				}}
		}
		return head(c)
	}
}

// workloads is the benchmark's definition; BENCHMARK.json and the
// README repeat the names and reasons and a test keeps them in step.
var workloads = []workloadSpec{
	{
		name:      "cold",
		why:       "Closed loop of distinct queries on a freshly built single node: every request misses the cache, so segment, search and ir do the work at saturation and a cache or cluster change must show nothing.",
		warmShare: 0.25, boots: 2, topology: singleNode(freshBuild), traffic: wideTraffic,
		hitRatio: [2]float64{0, missMaxHitRatio},
	},
	{
		name:      "cold-open",
		why:       "Open loop at a fixed 150 requests/s of distinct queries on a copy-loaded snapshot: the latency independent users see below saturation, where intra-query shard parallelism can help instead of hurt.",
		warmShare: 0.25, boots: 3, topology: singleNode(copyLoad), openRate: openLoopRate, traffic: wideTraffic,
		hitRatio: [2]float64{0, missMaxHitRatio},
	},
	{
		name:      "hot",
		why:       "Closed loop over the 512 most frequent queries on a mapped snapshot: hit ratio is at least 0.99, so HTTP, JSON and the server's cache do the work and an ir change must not show.",
		warmShare: 0.25, boots: 3, topology: singleNode(mappedLoad), traffic: headTraffic,
		hitRatio: [2]float64{hitMinHitRatio, 1},
	},
	{
		name:      "hot-rw",
		why:       "The hot mix with 2 % mutations (feedback, delete and re-add): each write purges the result cache and takes the engine write lock, so a read gain paid for by dearer writes splits hot from hot-rw.",
		warmShare: 0.25, boots: 3, topology: singleNode(mappedLoad), traffic: readWriteTraffic,
		hitRatio: [2]float64{0, 1}, verifyRing: true,
	},
	{
		name:      "batch",
		why:       "Closed loop of 32-item batches of distinct queries on a mapped snapshot: exercises the one-pass multi-query walk instead of 32 single searches, so a batch-only gain leaves cold flat.",
		warmShare: 0.4, boots: 3, topology: singleNode(mappedLoad), traffic: batchTraffic, batchProbes: true,
		hitRatio: [2]float64{0, missMaxHitRatio},
	},
	{
		name:      "cluster",
		why:       "The cold mix sent to a coordinator over two partition nodes: the difference from cold is the cluster layer alone, scatter, two HTTP/JSON hops, merge and waiting for the slower partition.",
		warmShare: 0.25, boots: 1, topology: clusterTopology, traffic: wideTraffic,
		hitRatio: [2]float64{0, missMaxHitRatio},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string             `json:"workload"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
	Samples   int                `json:"samples"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	SetupRuns []float64          `json:"setup_runs_s"`
	SliceQPS  []float64          `json:"slice_qps"`
	// Flags are remarks that do not void the run: "not warmed" when the
	// first-to-last slice drift exceeds the qps bound, "p99 under-sampled"
	// below minP99Samples.
	Flags []string `json:"flags"`
	// Invalid lists broken validity rules; a run with any is not correct.
	Invalid []string `json:"invalid"`
}

// runWorkload boots the workload's topology (timing it), checks the
// probe set against it, drives the traffic through warm-up and window,
// reads the children's counters and stops the children.
func runWorkload(ctx context.Context, e *env, spec workloadSpec) (*runResult, error) {
	defer e.fleet.killAll()
	res := &runResult{Workload: spec.name, EndToEnd: map[string]float64{}, Layer: map[string]float64{}, Flags: []string{}, Invalid: []string{}}

	var target *proc
	var children []*proc
	for i := 0; i < spec.boots; i++ {
		e.fleet.killAll()
		began := time.Now()
		var err error
		if target, children, err = spec.topology(e); err != nil {
			return nil, err
		}
		bootCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		err = waitHealthy(bootCtx, e.control, children)
		cancel()
		if err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(began).Seconds())
	}
	res.EndToEnd["setup_s"] = medianOf(res.SetupRuns)

	probed, mismatched, err := checkProbes(e, target.url, spec.batchProbes)
	if err != nil {
		return nil, err
	}

	var before, after serverStats
	var statsErr error
	var rss float64
	atEdge := func(closing bool) {
		st, err := fetchStats(e.control, target.url)
		if err != nil {
			statsErr = err
		}
		if !closing {
			before = st
			return
		}
		after = st
		for _, p := range children {
			mb, err := p.rssMB()
			if err != nil {
				statsErr = err
			}
			rss += mb
		}
	}
	clients := newClients(e.nproc, e.seed, e.load)
	next := spec.traffic(e, target.url)
	warm := time.Duration(float64(e.window) * spec.warmShare)
	inflightMax := e.nproc
	if spec.openRate > 0 {
		inflightMax = runOpen(clients, next, spec.openRate, warm, e.window, atEdge)
	} else {
		runClosed(clients, next, warm, e.window, atEdge)
	}
	if statsErr != nil {
		return nil, fmt.Errorf("reading counters of %s: %w", spec.name, statsErr)
	}

	recorders := make([]*clientRecorder, len(clients))
	for i, c := range clients {
		recorders[i] = &c.rec
	}
	sum := summarize(recorders, e.window)
	res.Samples = sum.Samples
	res.SliceQPS = sum.SliceQPS
	res.Attempted = sum.Attempted + int64(probed)
	res.Failed = sum.Failed + int64(mismatched)
	if spec.verifyRing {
		checked, wrong := verifyRing(e, target.url, clients)
		res.Attempted += int64(checked)
		res.Failed += int64(wrong)
	}
	res.EndToEnd["qps"] = sum.QPS
	res.EndToEnd["p50_ms"] = sum.P50Ms
	res.EndToEnd["p95_ms"] = sum.P95Ms
	res.EndToEnd["p99_ms"] = sum.P99Ms
	res.EndToEnd["error_share"] = float64(res.Failed) / float64(res.Attempted)

	lookups := (after.CacheHits + after.CacheMisses) - (before.CacheHits + before.CacheMisses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(after.CacheHits-before.CacheHits) / float64(lookups)
	}
	res.Layer["server.cache_hit_ratio"] = hitRatio
	res.Layer["server.dedup_shared"] = float64(after.DedupShared - before.DedupShared)
	res.Layer["server.rss_mb"] = rss
	res.Layer["driver.lateness_p99_ms"] = latenessP99Ms(clients)
	res.Layer["driver.inflight_max"] = float64(inflightMax)

	switch {
	case spec.hitRatio[1] == missMaxHitRatio && float64(len(e.qs.wide))*missMaxHitRatio < resultCacheSize:
		// Only the small harness-check corpus gets here: its wide set is
		// too few times the cache for distinct draws to miss it.
		res.Flags = append(res.Flags, fmt.Sprintf("hit-ratio rule not applied: %d wide queries against a %d-entry cache", len(e.qs.wide), resultCacheSize))
	case hitRatio < spec.hitRatio[0] || hitRatio > spec.hitRatio[1]:
		res.Invalid = append(res.Invalid, fmt.Sprintf("cache hit ratio %.4f outside [%g, %g]", hitRatio, spec.hitRatio[0], spec.hitRatio[1]))
	}
	if spec.openRate > 0 && res.Layer["driver.lateness_p99_ms"] > maxLatenessMs {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator lateness p99 %.2f ms over %.0f ms", res.Layer["driver.lateness_p99_ms"], maxLatenessMs))
	}
	if res.Failed > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d of %d operations failed or mismatched", res.Failed, res.Attempted))
	}
	if sum.Samples < minP99Samples {
		res.Flags = append(res.Flags, fmt.Sprintf("p99 under-sampled (%d samples)", sum.Samples))
	}
	if d := drift(sum.SliceQPS); d > bounds["qps"] || d < -bounds["qps"] {
		res.Flags = append(res.Flags, fmt.Sprintf("not warmed (qps drifted %+.1f%% first to last slice)", 100*d))
	}
	return res, nil
}

// checkProbes sends the probe set to the topology and compares each
// scrubbed response with the in-process engine's, byte for byte.
func checkProbes(e *env, base string, batched bool) (sent, mismatched int, err error) {
	probes := e.prep.probes
	post := func(body []byte) ([]byte, error) {
		resp, err := e.control.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("probe answered %s: %s", resp.Status, buf.Bytes())
		}
		return buf.Bytes(), nil
	}
	if !batched {
		for _, p := range probes {
			body, err := post([]byte(p.Request))
			if err != nil {
				return 0, 0, err
			}
			if string(scrub(body)) != p.Expected {
				mismatched++
			}
		}
		return len(probes), mismatched, nil
	}
	for lo := 0; lo < len(probes); lo += batchSize {
		chunk := probes[lo:min(lo+batchSize, len(probes))]
		req := []byte(`{"queries":[`)
		for i, p := range chunk {
			if i > 0 {
				req = append(req, ',')
			}
			req = append(req, p.Request...)
		}
		body, err := post(append(req, "]}"...))
		if err != nil {
			return 0, 0, err
		}
		var reply struct {
			Items []struct {
				Response json.RawMessage `json:"response"`
			} `json:"items"`
		}
		if err := json.Unmarshal(body, &reply); err != nil || len(reply.Items) != len(chunk) {
			return 0, 0, fmt.Errorf("batch probe reply unusable (%v): %s", err, body)
		}
		for i, p := range chunk {
			if string(scrub(reply.Items[i].Response)) != p.Expected {
				mismatched++
			}
		}
	}
	return len(probes), mismatched, nil
}

// verifyRing reads back every ring instance a client mutated: one whose
// last acknowledged operation was an add must be there, one whose last
// acknowledged operation was a delete must be gone.
func verifyRing(e *env, base string, clients []*client) (checked, wrong int) {
	for _, c := range clients {
		for anchor, present := range c.state {
			want := http.StatusNotFound
			if present {
				want = http.StatusOK
			}
			checked++
			resp, err := e.control.Get(base + "/v1/instances/" + url.PathEscape(ringID(anchor)))
			if err != nil {
				wrong++
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				wrong++
			}
		}
	}
	return checked, wrong
}
