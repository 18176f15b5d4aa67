package oracle

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"bpi/internal/service"
)

// Daemon is an in-process bpid instance on a loopback listener, plus the
// minimal client the engines/agree law needs. Running the real HTTP stack
// (handlers, verdict LRU, worker pool) keeps the differential check honest:
// the daemon path shares no in-memory state with Env.Seq.
type Daemon struct {
	srv  *service.Server
	http *http.Server
	base string
	hc   *http.Client
}

// StartDaemon boots a bpid service on 127.0.0.1:0.
func StartDaemon(cfg service.Config) (*Daemon, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}
	d := &Daemon{
		srv:  srv,
		http: hs,
		base: "http://" + lis.Addr().String(),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
	go hs.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	return d, nil
}

// Close drains and stops the daemon.
func (d *Daemon) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.http.Shutdown(ctx); err == nil {
		err = herr
	}
	return err
}

// Equiv posts one equivalence query.
func (d *Daemon) Equiv(ctx context.Context, req service.EquivRequest) (*service.EquivResponse, error) {
	var resp service.EquivResponse
	if err := d.post(ctx, "/v1/equiv", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch posts one /v1/equiv/batch request and reads the entire NDJSON
// stream: per-pair items (returned sorted by request index) plus the
// mandatory done=true trailer. A stream without a trailer was truncated
// and is an error, as is any line after the trailer.
func (d *Daemon) Batch(ctx context.Context, req service.BatchRequest) ([]service.BatchItem, service.BatchTrailer, error) {
	var trailer service.BatchTrailer
	body, err := json.Marshal(req)
	if err != nil {
		return nil, trailer, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/equiv/batch", bytes.NewReader(body))
	if err != nil {
		return nil, trailer, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := d.hc.Do(hreq)
	if err != nil {
		return nil, trailer, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
		return nil, trailer, fmt.Errorf("oracle: daemon /v1/equiv/batch: status %d: %s", hresp.StatusCode, raw)
	}
	var items []service.BatchItem
	sawTrailer := false
	sc := bufio.NewScanner(hresp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 32<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawTrailer {
			return nil, trailer, fmt.Errorf("oracle: daemon batch stream continues after its trailer")
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, trailer, fmt.Errorf("oracle: daemon batch stream line: %w", err)
		}
		if probe.Done != nil {
			if err := json.Unmarshal(line, &trailer); err != nil {
				return nil, trailer, fmt.Errorf("oracle: daemon batch trailer: %w", err)
			}
			sawTrailer = true
			continue
		}
		var item service.BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return nil, trailer, fmt.Errorf("oracle: daemon batch item: %w", err)
		}
		items = append(items, item)
	}
	if err := sc.Err(); err != nil {
		return nil, trailer, err
	}
	if !sawTrailer {
		return nil, trailer, fmt.Errorf("oracle: daemon batch stream truncated (no trailer)")
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
	return items, trailer, nil
}

func (d *Daemon) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := d.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		return err
	}
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("oracle: daemon %s: status %d: %s", path, hresp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}
