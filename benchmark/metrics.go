package main

// metricDef names one metric the benchmark reports. BENCHMARK.json
// repeats these tables for the driver; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the parent's median by which it may worsen
}

// endToEnd are the metrics a user of qunitsd would see, reported for
// every workload and gated by their bounds. Two more are reported beside
// them but not listed here: error_share is 0 on every correct run, and
// the contract carries it as failed/attempted; p99_ms rests on a dozen
// samples in the driver's 8 s windows (1,200 requests on cold-open, 600
// on batch), where its run-to-run spread reaches the largest bound a
// metric may have, so the gated tail is p95_ms.
var endToEnd = []metricDef{
	{"qps", "queries/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// bounds indexes the end-to-end regression bounds by metric name.
var bounds = func() map[string]float64 {
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.Name] = d.Bound
	}
	return m
}()

// perLayer are the single-layer metrics of the traced run. The layers
// are this repository's packages; every number is taken from outside
// the layer, by timing its public entry points or reading the
// children's /stats and /proc status.
var perLayer = []metricDef{
	{Name: "synth.generate_s", Unit: "s", Better: "lower"},
	{Name: "derive.catalog_s", Unit: "s", Better: "lower"},
	{Name: "search.build_s", Unit: "s", Better: "lower"},
	{Name: "search.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "snapshot.save_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.load_copy_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.load_mmap_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.bytes_per_instance", Unit: "B", Better: "lower"},
	{Name: "segment.segment_p50_us", Unit: "us", Better: "lower"},
	{Name: "segment.segment_p99_us", Unit: "us", Better: "lower"},
	{Name: "ir.topk_p50_us", Unit: "us", Better: "lower"},
	{Name: "ir.topk_p99_us", Unit: "us", Better: "lower"},
	{Name: "ir.count_p50_us", Unit: "us", Better: "lower"},
	{Name: "ir.count_p99_us", Unit: "us", Better: "lower"},
	{Name: "ir.postings_per_query", Unit: "count", Better: "lower"},
	{Name: "ir.blocks_per_query", Unit: "count", Better: "lower"},
	{Name: "search.search_p50_us", Unit: "us", Better: "lower"},
	{Name: "search.search_p99_us", Unit: "us", Better: "lower"},
	{Name: "search.search_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "search.search_mmap_p50_us", Unit: "us", Better: "lower"},
	{Name: "search.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "search.mutate_add_us", Unit: "us", Better: "lower"},
	{Name: "search.mutate_remove_us", Unit: "us", Better: "lower"},
	{Name: "search.mutate_feedback_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.dedup_shared", Unit: "count", Better: "higher"},
	{Name: "server.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.scatter_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.inflight_max", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}
