package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qunits/internal/imdb"
)

var smokeUniverse = sync.OnceValue(func() *imdb.Universe {
	u, err := generateUniverse(smokeInstances)
	if err != nil {
		panic(err)
	}
	return u
})

func mustQuerySets(t *testing.T, seed int64) *querySets {
	t.Helper()
	qs, err := deriveQuerySets(smokeUniverse(), seed, smokeLogVolume)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func TestQuerySetsFollowTheSeed(t *testing.T) {
	a, again, b := mustQuerySets(t, 1), mustQuerySets(t, 1), mustQuerySets(t, 2)
	if !reflect.DeepEqual(a.wide, again.wide) || !reflect.DeepEqual(a.headCum, again.headCum) {
		t.Error("the same seed gave different query sets")
	}
	if reflect.DeepEqual(a.wide, b.wide) {
		t.Error("another seed gave the same wide set")
	}
	ra, rb := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if a.drawHead(ra) != again.drawHead(rb) {
			t.Fatal("the same seed drew different head queries")
		}
	}
}

func TestHeadIsAPrefixOfWide(t *testing.T) {
	qs := mustQuerySets(t, 1)
	if len(qs.head) != headSize {
		t.Fatalf("|head| = %d, want %d", len(qs.head), headSize)
	}
	if len(qs.wide) <= len(qs.head) || len(qs.bodies) != len(qs.wide) {
		t.Fatalf("wide has %d queries and %d bodies", len(qs.wide), len(qs.bodies))
	}
	if !reflect.DeepEqual(qs.head, qs.wide[:headSize]) {
		t.Error("head is not the most frequent prefix of wide")
	}
	seen := map[string]bool{}
	for _, q := range qs.wide {
		if seen[q] || strings.TrimSpace(q) == "" {
			t.Fatalf("wide holds a blank or repeated query %q", q)
		}
		seen[q] = true
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if h := qs.drawHead(rng); h < 0 || h >= headSize {
			t.Fatalf("drawHead = %d", h)
		}
	}
}

func TestProbeSetShape(t *testing.T) {
	probes := probeRequests(mustQuerySets(t, probeSeed))
	if len(probes) != probeCount {
		t.Fatalf("%d probes, want %d", len(probes), probeCount)
	}
	filters, offsets := 0, 0
	for _, p := range probes {
		var body searchBody
		if err := json.Unmarshal(p, &body); err != nil {
			t.Fatal(err)
		}
		if body.K != pageK || body.Query == "" {
			t.Errorf("probe %s lacks k or query", p)
		}
		if body.Filter != nil {
			filters++
		}
		if body.Offset > 0 {
			offsets++
		}
	}
	if filters != 1 || offsets != 1 {
		t.Errorf("%d filtered and %d offset probes, want one of each", filters, offsets)
	}
}

func TestBatchBodyCarriesBatchSizeItems(t *testing.T) {
	qs := mustQuerySets(t, 1)
	var body struct {
		Queries []searchBody `json:"queries"`
	}
	if err := json.Unmarshal(qs.batchBody(rand.New(rand.NewSource(1)), nil), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Queries) != batchSize {
		t.Errorf("%d items, want %d", len(body.Queries), batchSize)
	}
}

// TestMutationRingIsStationary replays the hot-rw generator with every
// operation acknowledged and follows the live set: 2 % of operations
// mutate, no instance is deleted while absent or added while present,
// and the live count never leaves [ring - clients, ring].
func TestMutationRingIsStationary(t *testing.T) {
	u := smokeUniverse()
	e := &env{nproc: 2, qs: mustQuerySets(t, 1), targets: deriveMutationTargets(u)}
	if len(e.targets.ring) != ringSize || len(e.targets.feedback) != feedbackSize {
		t.Fatalf("ring %d, feedback %d", len(e.targets.ring), len(e.targets.feedback))
	}
	live := map[string]bool{}
	for _, a := range e.targets.ring {
		live[ringID(a)] = true
	}
	next := readWriteTraffic(e, "http://x")
	clients := newClients(e.nproc, 1, nil)
	var searches, feedbacks, deletes, adds int
	const perClient = 200000
	for i := 0; i < perClient; i++ {
		for _, c := range clients {
			o := next(c)
			c.ops++
			switch {
			case o.search:
				searches++
			case strings.HasSuffix(o.url, "/v1/feedback"):
				feedbacks++
			case o.method == http.MethodDelete:
				id, err := url.PathUnescape(strings.TrimPrefix(o.url, "http://x/v1/instances/"))
				if err != nil {
					t.Fatal(err)
				}
				if !live[id] {
					t.Fatalf("op %d deletes absent %s", i, id)
				}
				delete(live, id)
				deletes++
			default:
				var body struct{ Definition, Anchor string }
				if err := json.Unmarshal(o.body, &body); err != nil || body.Definition != ringDefinition {
					t.Fatalf("unexpected add body %s", o.body)
				}
				if live[ringID(body.Anchor)] {
					t.Fatalf("op %d adds present %s", i, body.Anchor)
				}
				live[ringID(body.Anchor)] = true
				adds++
			}
			if o.after != nil {
				o.after(true)
			}
			if len(live) < ringSize-e.nproc || len(live) > ringSize {
				t.Fatalf("live count %d left [%d, %d]", len(live), ringSize-e.nproc, ringSize)
			}
		}
	}
	total := perClient * e.nproc
	if feedbacks != total/100 || deletes != total/200 || adds != total/200 {
		t.Errorf("of %d ops: %d feedbacks, %d deletes, %d adds; want 1 %%, 0.5 %%, 0.5 %%", total, feedbacks, deletes, adds)
	}
	if len(live) != ringSize {
		t.Errorf("live count ends at %d, want %d", len(live), ringSize)
	}
	touched := 0
	for _, c := range clients {
		for _, present := range c.state {
			if !present {
				t.Error("a client's last acknowledged operation on an instance is a delete after a whole cycle")
			}
			touched++
		}
	}
	if touched != ringSize {
		t.Errorf("clients cycled %d ring instances, want all %d", touched, ringSize)
	}
}
