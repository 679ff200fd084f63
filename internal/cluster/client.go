package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the /v1/partition RPC to one remote partition server.
// It implements Partition; the coordinator uses it interchangeably
// with LocalPartition.
type Client struct {
	// BaseURL is the partition server's root, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// HTTPClient is the transport; nil means defaultHTTPClient, whose
	// timeout bounds every RPC so a hung partition fails the scatter
	// with *UnavailableError instead of holding it forever.
	HTTPClient *http.Client
	// PartitionIndex labels transport failures (UnavailableError).
	PartitionIndex int
}

// NewClient returns a client for one partition server.
func NewClient(baseURL string, index int) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), PartitionIndex: index}
}

// maxReplyBytes bounds every RPC reply body (a defensive mirror of the
// server's request bound; partition pages are small).
const maxReplyBytes = 8 << 20

// defaultHTTPClient is the transport of every Client without its own.
// Its timeout covers the whole exchange, reply body included, and sits
// orders of magnitude above a healthy partition's tail latency.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// Search implements Partition.
func (c *Client) Search(ctx context.Context, req PageRequest) (*PageReply, error) {
	req.Proto = ProtoVersion
	var reply PageReply
	if err := c.post(ctx, "/v1/partition/search", req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Batch implements Partition.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchReply, error) {
	req.Proto = ProtoVersion
	var reply BatchReply
	if err := c.post(ctx, "/v1/partition/batch", req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Stats implements Partition.
func (c *Client) Stats(ctx context.Context) (*PartitionStats, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/partition/stats", nil)
	if err != nil {
		return nil, &UnavailableError{Partition: c.PartitionIndex, Err: err}
	}
	var stats PartitionStats
	if err := c.do(httpReq, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// post sends one JSON request and decodes the success body into out.
func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return &UnavailableError{Partition: c.PartitionIndex, Err: err}
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return &UnavailableError{Partition: c.PartitionIndex, Err: err}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	return c.do(httpReq, out)
}

// do executes one RPC: a 2xx body decodes into out; an error status
// must carry the /v1 envelope, which surfaces as *RemoteError (message
// verbatim — see RemoteError); anything else is *UnavailableError.
func (c *Client) do(req *http.Request, out interface{}) error {
	client := c.HTTPClient
	if client == nil {
		client = defaultHTTPClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return &UnavailableError{Partition: c.PartitionIndex, Err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	if err != nil {
		return &UnavailableError{Partition: c.PartitionIndex, Err: err}
	}
	if resp.StatusCode/100 != 2 {
		var envelope struct {
			Error WireError `json:"error"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error.Code == "" {
			return &UnavailableError{Partition: c.PartitionIndex,
				Err: fmt.Errorf("status %d with unrecognized body %.200q", resp.StatusCode, raw)}
		}
		return &RemoteError{Code: envelope.Error.Code, Status: resp.StatusCode, Message: envelope.Error.Message}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return &UnavailableError{Partition: c.PartitionIndex, Err: fmt.Errorf("decoding reply: %w", err)}
	}
	return nil
}
