package bpi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"bpi/internal/service"
)

// Wire types of the bpid daemon API, re-exported for Client callers.
type (
	// EquivRequest asks a daemon for an equivalence verdict.
	EquivRequest = service.EquivRequest
	// EquivResponse is a daemon equivalence verdict.
	EquivResponse = service.EquivResponse
	// ProveRequest asks a daemon whether A ⊢ p = q.
	ProveRequest = service.ProveRequest
	// ProveResponse is a daemon provability verdict.
	ProveResponse = service.ProveResponse
	// APIError is the typed error a daemon returns (code + message, plus a
	// Retry-After hint on admission sheds).
	APIError = service.ErrorBody
	// BatchRequest carries many equivalence queries for POST /v1/equiv/batch.
	BatchRequest = service.BatchRequest
	// BatchItem is one pair's verdict (or typed error) within a batch.
	BatchItem = service.BatchItem
	// BatchTrailer is the end-of-stream accounting line of a batch.
	BatchTrailer = service.BatchTrailer
)

// BatchResult is a fully read batch response: the per-pair items reordered
// by request index, plus the trailer.
type BatchResult struct {
	Items   []BatchItem
	Trailer BatchTrailer
}

// Service is the embeddable daemon core (admission gate, worker pool,
// verdict cache, request traces), which decides each request on a term
// store of its own; mount Service.Handler on any http.Server.
type Service = service.Server

// ServiceConfig tunes an embedded Service; the zero value is usable.
type ServiceConfig = service.Config

// NewService returns a daemon core; each request it decides gets a fresh
// term store.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Client calls a running bpid daemon. The zero HTTP client is usable;
// deadlines are passed per call via context (the daemon additionally applies
// its own request timeouts).
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8317".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post POSTs in as JSON and decodes the answer into out, returning the
// daemon's typed *APIError on non-2xx responses.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	buf, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var er struct {
			Error APIError `json:"error"`
		}
		if json.Unmarshal(data, &er) == nil && er.Error.Code != "" {
			return &er.Error
		}
		return fmt.Errorf("bpid: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// Health reports whether the daemon is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bpid: unhealthy: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Equiv asks the daemon for an equivalence verdict.
func (c *Client) Equiv(ctx context.Context, req EquivRequest) (*EquivResponse, error) {
	var out EquivResponse
	err := c.post(ctx, "/v1/equiv", req, &out)
	return &out, err
}

// Batch posts many pairs to /v1/equiv/batch and reads the whole NDJSON
// stream: items are returned sorted by request index (the daemon streams
// them in completion order), and the done=true trailer is required — a
// stream without one was truncated and is reported as an error.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResult, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/equiv/batch", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var er struct {
			Error APIError `json:"error"`
		}
		if json.Unmarshal(data, &er) == nil && er.Error.Code != "" {
			return nil, &er.Error
		}
		return nil, fmt.Errorf("bpid: batch: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	out := &BatchResult{Items: make([]BatchItem, 0, len(req.Pairs))}
	sawTrailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 32<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawTrailer {
			return nil, fmt.Errorf("bpid: batch: stream continues after its trailer")
		}
		// The trailer is the only line with "done"; items carry "index".
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("bpid: batch: bad stream line: %w", err)
		}
		if probe.Done != nil {
			if err := json.Unmarshal(line, &out.Trailer); err != nil {
				return nil, fmt.Errorf("bpid: batch: bad trailer: %w", err)
			}
			sawTrailer = true
			continue
		}
		var item BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return nil, fmt.Errorf("bpid: batch: bad item: %w", err)
		}
		out.Items = append(out.Items, item)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawTrailer {
		return nil, fmt.Errorf("bpid: batch: stream truncated (no trailer)")
	}
	sort.Slice(out.Items, func(i, j int) bool { return out.Items[i].Index < out.Items[j].Index })
	return out, nil
}

// Prove asks the daemon whether A ⊢ p = q.
func (c *Client) Prove(ctx context.Context, req ProveRequest) (*ProveResponse, error) {
	var out ProveResponse
	err := c.post(ctx, "/v1/prove", req, &out)
	return &out, err
}

// Metrics fetches the daemon's raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("bpid: metrics: HTTP %d", resp.StatusCode)
	}
	return string(data), nil
}
