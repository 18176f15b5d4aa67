package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// metrics is a small hand-rolled Prometheus-text-format registry: request
// counters per (endpoint, code), a latency histogram per endpoint, and
// gauges sampled at scrape time (request-store totals, cache hit rate,
// worker utilisation, admission). stdlib-only by design.
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]uint64
	hists    map[string]*histogram
}

type reqKey struct {
	endpoint string
	code     string
}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

type histogram struct {
	counts []uint64 // one per bucket, non-cumulative
	inf    uint64
	sum    float64
	total  uint64
}

func newMetrics() *metrics {
	return &metrics{requests: map[reqKey]uint64{}, hists: map[string]*histogram{}}
}

// observe records one finished request.
func (m *metrics) observe(endpoint, code string, elapsed time.Duration) {
	secs := elapsed.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	h := m.hists[endpoint]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.hists[endpoint] = h
	}
	placed := false
	for i, ub := range latencyBuckets {
		if secs <= ub {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	h.sum += secs
	h.total++
}

// gauge is one point-in-time sample added by the server at scrape time.
type gauge struct {
	name   string
	help   string
	labels string // rendered "{k=\"v\"}" or empty
	value  float64
}

// render writes the Prometheus text exposition: counters and histograms
// from the registry, then the sampled gauges.
func (m *metrics) render(b *strings.Builder, gauges []gauge) {
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	b.WriteString("# HELP bpid_requests_total Requests served, by endpoint and result code.\n")
	b.WriteString("# TYPE bpid_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(b, "bpid_requests_total{endpoint=%q,code=%q} %d\n", k.endpoint, k.code, m.requests[k])
	}
	eps := make([]string, 0, len(m.hists))
	for ep := range m.hists {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	b.WriteString("# HELP bpid_request_seconds Request latency.\n")
	b.WriteString("# TYPE bpid_request_seconds histogram\n")
	for _, ep := range eps {
		h := m.hists[ep]
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(b, "bpid_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", ep, ub, cum)
		}
		fmt.Fprintf(b, "bpid_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum+h.inf)
		fmt.Fprintf(b, "bpid_request_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(b, "bpid_request_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}
	m.mu.Unlock()

	last := ""
	for _, g := range gauges {
		if g.name != last {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
			last = g.name
		}
		fmt.Fprintf(b, "%s%s %g\n", g.name, g.labels, g.value)
	}
}
