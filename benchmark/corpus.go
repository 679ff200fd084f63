package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"qunits/internal/imdb"
	"qunits/internal/ir"
	"qunits/internal/querylog"
	"qunits/internal/synth"
)

// The corpus is part of the benchmark's definition: a later change is
// judged on the same database, the same k and the same query material.
const (
	corpusSeed      = 1
	corpusInstances = 100000
	smokeInstances  = 3000
	pageK           = 10
	logVolume       = 200000
	smokeLogVolume  = 20000
	headSize        = 512
	ringSize        = 256
	feedbackSize    = 256
	probeSeed       = 1
	probeCount      = 64
	batchSize       = 32
)

func generateUniverse(instances int) (*imdb.Universe, error) {
	cfg := synth.ForInstances(instances)
	cfg.Seed = corpusSeed
	return synth.Generate(cfg)
}

// searchBody is the /v1/search request the driver sends. It is the wire
// contract spelled out here rather than imported, so the driver sends
// what an outside client would.
type searchBody struct {
	Query  string      `json:"query"`
	K      int         `json:"k"`
	Offset int         `json:"offset,omitempty"`
	Filter *bodyFilter `json:"filter,omitempty"`
}

type bodyFilter struct {
	Definitions []string `json:"definitions,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only driver-owned structs are marshalled
	}
	return b
}

// querySets is the query material of one workload seed.
type querySets struct {
	// wide holds every distinct query of the generated log, drawn
	// uniformly: about 76 times the default result cache, so every
	// request misses.
	wide []string
	// head holds the headSize most frequent queries, drawn in proportion
	// to log frequency: it fits the default result cache twice over.
	head    []string
	headCum []float64
	// bodies are the pre-marshalled single-query requests, wide order;
	// the head is a prefix of the wide set.
	bodies [][]byte
}

func deriveQuerySets(u *imdb.Universe, seed int64, volume int) (*querySets, error) {
	cfg := querylog.DefaultGenConfig()
	cfg.Seed = seed
	cfg.Volume = volume
	log := querylog.Generate(u, cfg)
	qs := &querySets{}
	var cum float64
	for _, e := range log.Entries { // sorted by descending frequency, then text
		if strings.TrimSpace(e.Query) == "" {
			continue
		}
		qs.wide = append(qs.wide, e.Query)
		qs.bodies = append(qs.bodies, mustJSON(searchBody{Query: e.Query, K: pageK}))
		if len(qs.head) < headSize {
			cum += math.Log1p(float64(e.Freq))
			qs.head = append(qs.head, e.Query)
			qs.headCum = append(qs.headCum, cum)
		}
	}
	if len(qs.head) < headSize {
		return nil, fmt.Errorf("query log has %d distinct queries, need at least %d", len(qs.wide), headSize)
	}
	return qs, nil
}

func (qs *querySets) drawWide(r *rand.Rand) int { return r.Intn(len(qs.wide)) }

func (qs *querySets) drawHead(r *rand.Rand) int {
	x := r.Float64() * qs.headCum[len(qs.headCum)-1]
	return sort.SearchFloat64s(qs.headCum, x)
}

// batchBody joins batchSize uniform wide draws into one batch request.
func (qs *querySets) batchBody(r *rand.Rand, buf []byte) []byte {
	buf = append(buf[:0], `{"queries":[`...)
	for i := 0; i < batchSize; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, qs.bodies[qs.drawWide(r)]...)
	}
	return append(buf, "]}"...)
}

// probeRequests is the fixed correctness probe: half head, half spread
// evenly over the wide set, with one definition filter and one offset
// page. It is derived from probeSeed, not from the workload seed, so
// its expected answers are computed once per source state.
func probeRequests(qs *querySets) [][]byte {
	probes := make([][]byte, 0, probeCount)
	half := probeCount / 2
	for i := 0; i < half; i++ {
		body := searchBody{Query: qs.head[i], K: pageK}
		switch i {
		case half - 2:
			body.Filter = &bodyFilter{Definitions: []string{"movie-cast", "movie-summary"}}
		case half - 1:
			body.Offset = pageK
		}
		probes = append(probes, mustJSON(body))
	}
	step := len(qs.wide) / half
	for i := 0; i < half; i++ {
		probes = append(probes, qs.bodies[i*step+step/2])
	}
	return probes
}

// mutationTargets are the instances hot-rw writes to: feedback goes to
// the popularity head, where it collides with cached reads the hardest;
// the remove/re-add ring is taken from the popularity tail, so the live
// count stays stationary and no head query loses its answer.
type mutationTargets struct {
	feedback []string // movie-summary instance ids
	ring     []string // person-profile anchors (normalized names)
}

const (
	feedbackDefinition = "movie-summary"
	ringDefinition     = "person-profile"
)

func deriveMutationTargets(u *imdb.Universe) mutationTargets {
	var t mutationTargets
	seen := map[string]bool{}
	for _, m := range u.Movies { // sorted by descending weight
		id := feedbackDefinition + ":" + ir.Normalize(m.Name)
		if !seen[id] {
			seen[id] = true
			t.feedback = append(t.feedback, id)
		}
		if len(t.feedback) == feedbackSize {
			break
		}
	}
	for i := len(u.Persons) - 1; i >= 0 && len(t.ring) < ringSize; i-- {
		name := ir.Normalize(u.Persons[i].Name)
		if !seen[name] {
			seen[name] = true
			t.ring = append(t.ring, name)
		}
	}
	return t
}

func ringID(anchor string) string { return ringDefinition + ":" + anchor }
