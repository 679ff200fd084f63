package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestClientTimesOutStalledPartition: a partition that accepts the
// connection and never answers must fail every RPC with
// *UnavailableError once the default client's timeout passes, instead
// of holding the coordinator's scatter forever.
func TestClientTimesOutStalledPartition(t *testing.T) {
	if defaultHTTPClient.Timeout <= 0 {
		t.Fatal("the default partition client has no timeout")
	}
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	saved := defaultHTTPClient
	defaultHTTPClient = &http.Client{Timeout: 100 * time.Millisecond}
	defer func() { defaultHTTPClient = saved }()

	c := NewClient(ts.URL, 1)
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"search": func() error { _, err := c.Search(ctx, PageRequest{}); return err },
		"batch":  func() error { _, err := c.Batch(ctx, BatchRequest{}); return err },
		"stats":  func() error { _, err := c.Stats(ctx); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			var unavailable *UnavailableError
			if !errors.As(err, &unavailable) || unavailable.Partition != 1 {
				t.Fatalf("%s against a stalled partition: err = %v, want *UnavailableError for partition 1", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s against a stalled partition is still waiting after 10s", name)
		}
	}
}
