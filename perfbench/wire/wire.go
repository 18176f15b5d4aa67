// Package wire holds the messages the benchmark harness and its ladder child
// exchange: rungs go in as a JSON file, results come back as one JSON line
// per command on the child's standard output.
package wire

// Rung is one ladder query in concrete syntax, with its known answer.
type Rung struct {
	Name  string `json:"name"`
	Rel   string `json:"rel"` // step, barbed or labelled
	Weak  bool   `json:"weak,omitempty"`
	P     string `json:"p"`
	Q     string `json:"q"`
	Want  bool   `json:"want"`
	Pairs int    `json:"pairs"` // pinned pair count
}

// RungResult is the child's answer for one rung.
type RungResult struct {
	Name    string  `json:"name"`
	Related bool    `json:"related"`
	Pairs   int     `json:"pairs"`
	Ms      float64 `json:"ms"`
	Err     string  `json:"err,omitempty"`
	// Span is the id of the rung's ladder.rung span in traced passes.
	Span uint64 `json:"span,omitempty"`
	// Traced passes only: the store counters of the rung's checker, and the
	// certificate's size and independent replay time.
	StoreTerms   uint64  `json:"store_terms,omitempty"`
	InternHits   uint64  `json:"intern_hits,omitempty"`
	InternMisses uint64  `json:"intern_misses,omitempty"`
	DerivHits    uint64  `json:"deriv_hits,omitempty"`
	DerivMisses  uint64  `json:"deriv_misses,omitempty"`
	CertBytes    int     `json:"cert_bytes,omitempty"`
	VerifyMs     float64 `json:"verify_ms,omitempty"`
	VerifyErr    string  `json:"verify_err,omitempty"`
}

// Runtime is a runtime/metrics reading of the child, cumulative since start.
type Runtime struct {
	AllocBytes   float64 `json:"alloc_bytes"`
	AllocObjects float64 `json:"alloc_objects"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPU        float64 `json:"gc_cpu_s"`
	TotalCPU     float64 `json:"total_cpu_s"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
}

// Span is one span timed in the child, in unix nanoseconds.
type Span struct {
	Name   string         `json:"name"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Req    uint64         `json:"req"`
	Start  int64          `json:"start_ns"`
	Dur    int64          `json:"dur_ns"`
	Args   map[string]any `json:"args,omitempty"`
}

// Reply is the child's answer to one command.
type Reply struct {
	Ready bool         `json:"ready,omitempty"`
	Rungs []RungResult `json:"rungs,omitempty"`
	// PassMs is the wall time of a traced pass's decisions.
	PassMs  float64  `json:"pass_ms,omitempty"`
	Runtime *Runtime `json:"runtime,omitempty"`
	// Traced passes: the child's spans, the program's obs spans and counters.
	Spans       []Span           `json:"spans,omitempty"`
	ObsSpans    []Span           `json:"obs_spans,omitempty"`
	ObsCounters map[string]int64 `json:"obs_counters,omitempty"`
	Err         string           `json:"err,omitempty"`
}
