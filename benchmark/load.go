package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds every request; one that exceeds it counts as
// failed.
const requestTimeout = 2 * time.Second

// op is one request the driver sends.
type op struct {
	method     string
	url        string
	body       []byte
	wantStatus int
	weight     int64                  // operations the request carries: 1, or batchSize for a batch
	search     bool                   // a /v1/search request: its latency is sampled
	valid      func(body []byte) bool // optional cheap check of the response body
	after      func(ok bool)          // optional bookkeeping once the outcome is known
}

// client is one closed-loop user (or one open-loop sender): a goroutine
// with its own random stream, recorder and buffers. All clients share
// one transport, which therefore holds one keep-alive connection per
// client.
type client struct {
	id      int
	rng     *rand.Rand
	http    *http.Client
	rec     clientRecorder
	resp    bytes.Buffer
	scratch []byte
	late    []int64 // how long after it was due each request was sent, in ns, window only
	ops     int     // operations issued so far, warm-up included
	ringPos int     // hot-rw: next ring entry this client cycles
	state   map[string]bool
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func newClients(n int, seed int64, hc *http.Client) []*client {
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = &client{id: i, rng: rand.New(rand.NewSource(seed*1000003 + int64(i))), http: hc}
	}
	return clients
}

// do sends one request and reports whether it was answered as expected.
// The body is read to the end so the connection is reused.
func (c *client) do(o op) bool {
	req, err := http.NewRequest(o.method, o.url, bytes.NewReader(o.body))
	if err != nil {
		return false
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != o.wantStatus {
		return false
	}
	return o.valid == nil || o.valid(c.resp.Bytes())
}

// runClosed drives a closed loop: every client sends its next request as
// soon as the previous one is answered, through an unrecorded warm-up
// and then the measured window. atEdge reads the children's counters at
// both edges of the window.
func runClosed(clients []*client, next func(*client) op, warm, window time.Duration, atEdge func(closing bool)) {
	opens := time.Now().Add(warm)
	closes := opens.Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			// In a closed loop a request is due the instant the previous
			// one was answered; what passes until it is sent is the
			// driver's own lateness.
			due := time.Now()
			for due.Before(closes) {
				o := next(c)
				c.ops++
				started := time.Now()
				ok := c.do(o)
				ended := time.Now()
				if o.after != nil {
					o.after(ok)
				}
				if !due.Before(opens) {
					c.late = append(c.late, int64(started.Sub(due)))
				}
				c.rec.record(ended.Sub(opens), window, ended.Sub(started), o.weight, o.search, ok)
				due = ended
			}
		}(c)
	}
	holdWindow(opens, closes, atEdge, &wg)
}

// runOpen drives an open loop: request i is due at start + i/rate
// whether or not earlier ones were answered, the clients bounding how
// many are in flight. Latency runs from the instant a request was due,
// so a stall is charged to every request it delays. It returns the
// largest number of requests seen in flight.
func runOpen(clients []*client, next func(*client) op, rate float64, warm, window time.Duration, atEdge func(closing bool)) int {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	opens := start.Add(warm)
	closes := opens.Add(window)
	var ticket, inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				due := start.Add(time.Duration(ticket.Add(1)-1) * interval)
				if !due.Before(closes) {
					return
				}
				time.Sleep(time.Until(due))
				o := next(c)
				c.ops++
				n := inflight.Add(1)
				for {
					seen := inflightMax.Load()
					if n <= seen || inflightMax.CompareAndSwap(seen, n) {
						break
					}
				}
				sent := time.Now()
				ok := c.do(o)
				ended := time.Now()
				inflight.Add(-1)
				if o.after != nil {
					o.after(ok)
				}
				if !due.Before(opens) {
					c.late = append(c.late, int64(sent.Sub(due)))
				}
				c.rec.record(ended.Sub(opens), window, ended.Sub(due), o.weight, o.search, ok)
			}
		}(c)
	}
	holdWindow(opens, closes, atEdge, &wg)
	return int(inflightMax.Load())
}

// holdWindow calls atEdge when the measured window opens and again when
// it closes, while the clients keep running, then waits for them.
func holdWindow(opens, closes time.Time, atEdge func(closing bool), clients *sync.WaitGroup) {
	time.Sleep(time.Until(opens))
	atEdge(false)
	time.Sleep(time.Until(closes))
	atEdge(true)
	clients.Wait()
}

// latenessP99Ms is the 99th percentile of how late the senders ran, over
// every client.
func latenessP99Ms(clients []*client) float64 {
	var all []int64
	for _, c := range clients {
		all = append(all, c.late...)
	}
	slices.Sort(all)
	return quantile(all, 0.99) / 1e6
}

// serverStats are the /stats counters the driver reads from a child.
type serverStats struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DedupShared int64 `json:"dedup_shared"`
	Instances   int   `json:"instances"`
}

func fetchStats(hc *http.Client, base string) (serverStats, error) {
	var st serverStats
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s/stats: %s", base, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
