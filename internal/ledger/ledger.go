// Package ledger is bpid's persistent, tamper-evident verdict store: a
// disk-backed, content-addressed, append-only log of certified equivalence
// verdicts that survives the process and warm-starts the next one.
//
// Layout: numbered segment files (seg-000001.log, …) of length-prefixed,
// CRC-32C-checksummed entries, rescanned in full at every Open. Two entry
// kinds interleave in append order: verdict records (Record) and batch seals
// (Seal). Appended records accumulate into a pending batch; sealing builds
// an RFC 6962-shaped Merkle tree over the records' on-disk payload bytes,
// and the sealed roots chain hash-linked from a fixed genesis value, so any
// record can produce a compact inclusion proof (InclusionProof) verifiable
// from a root alone, and rewriting any sealed byte breaks the chain.
//
// Trust is layered and fail-closed, per record:
//
//   - framing integrity: a torn tail write is truncated away with a recovery
//     note; a framed entry whose checksum fails is quarantined and skipped
//     (length-prefix framing keeps the rest of the log readable);
//   - batch integrity: a seal whose recomputed root or chain link does not
//     match condemns every record it covers (and flags the chain broken);
//   - semantic trust: every surviving record is replayed through the
//     independent certificate verifier (internal/cert) at Open, and its
//     certificate terms must re-derive the record's canonical pair key —
//     so a flipped verdict, a swapped certificate or a remapped key is
//     rejected without trusting the binary that wrote the log.
//
// Only records passing all three layers are offered to Replay (the daemon's
// warm-start path); everything else is counted, never trusted.
//
// The package owns pair identity: QueryKey maps a query and CertKey a
// certificate to the pair key, and they alone choose the term form — the
// simplified terms, except under ~c, whose key keeps the terms as queried
// because Simplify drops matches that a substitution would fire. The
// daemon's verdict cache and every record key use them.
package ledger

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bpi/internal/cert"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Config tunes a Ledger. The zero value is usable.
type Config struct {
	// Env is the definitions environment certificates may reference.
	Env syntax.Env
	// BatchSize seals a pending batch as soon as it holds this many records
	// (default 64).
	BatchSize int
	// MaxWait bounds how long an appended record stays unsealed (default 2s;
	// negative disables timed sealing — batches seal on size and Close only).
	MaxWait time.Duration
	// SegmentBytes rolls the active segment past this size (default 8 MiB).
	SegmentBytes int64
}

func (c Config) batchSize() int {
	if c.BatchSize <= 0 {
		return 64
	}
	return c.BatchSize
}

func (c Config) maxWait() time.Duration {
	if c.MaxWait == 0 {
		return 2 * time.Second
	}
	return c.MaxWait
}

func (c Config) segmentBytes() int64 {
	if c.SegmentBytes <= 0 {
		return 8 << 20
	}
	return c.SegmentBytes
}

// Sentinel errors of the proof lookup path.
var (
	ErrUnknownKey = errors.New("ledger: no record for key")
	ErrPending    = errors.New("ledger: record not sealed yet")
	ErrClosed     = errors.New("ledger: closed")
)

// entry is one decoded log entry held in memory: the record, its exact
// on-disk payload (the Merkle leaf preimage), and its trust status.
type entry struct {
	rec     Record
	crt     *cert.Certificate // parsed certificate; nil for records this process appended or rejected
	payload []byte
	leaf    [32]byte
	batch   int // seals[batch]; -1 pending, -2 condemned
	leafIdx int
	reject  string // non-empty: quarantined, with the reason
}

type sealedBatch struct {
	seal   Seal
	leaves [][32]byte
}

// Stats is a point-in-time summary of the ledger.
type Stats struct {
	// Records counts trusted (replayable) records; Rejected counts
	// quarantined ones, whatever the layer that rejected them.
	Records  int    `json:"records"`
	Rejected int    `json:"rejected"`
	Pending  int    `json:"pending"`
	Batches  int    `json:"batches"`
	NextSeq  uint64 `json:"next_seq"`
	// ChainHead is the hex chain value after the last intact seal.
	ChainHead   string `json:"chain_head"`
	ChainBroken bool   `json:"chain_broken,omitempty"`
	Segments    int    `json:"segments"`
	Bytes       int64  `json:"bytes"`
	// Appended / Seals / SealWaitSeconds cover this process only: records
	// appended, batches sealed, and the summed first-append-to-seal latency.
	Appended        uint64  `json:"appended"`
	Seals           uint64  `json:"seals"`
	SealWaitSeconds float64 `json:"seal_wait_seconds"`
	// Notes are recovery observations from Open (truncated tail, condemned
	// batches).
	Notes []string `json:"notes,omitempty"`
}

// Ledger is an open verdict log. All methods are safe for concurrent use.
type Ledger struct {
	dir      string
	cfg      Config
	verifier *cert.Verifier

	mu         sync.Mutex
	active     *os.File
	activeSeg  int
	activeSize int64
	segments   int
	bytes      int64
	nextSeq    uint64
	entries    []*entry
	byKey      map[string]*entry // key hash → latest trusted entry
	seals      []*sealedBatch
	chain      [32]byte
	broken     bool
	pending    []*entry
	pendingAt  time.Time
	rejected   int
	notes      []string
	appended   uint64
	sealsDone  uint64
	sealWait   float64
	closed     bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func segName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// Open reads (and, for the damaged tail, repairs) the ledger under dir,
// verifying every record's certificate, and leaves the last segment open
// for appending. A missing dir is created empty.
func Open(dir string, cfg Config) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{
		dir:      dir,
		cfg:      cfg,
		verifier: &cert.Verifier{Sys: semantics.NewSystem(cfg.Env)},
		byKey:    map[string]*entry{},
		chain:    genesisChain(),
		nextSeq:  1,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		if err := l.loadSegment(filepath.Join(dir, name), i == len(names)-1); err != nil {
			return nil, err
		}
	}
	l.segments = len(names)
	l.activeSeg = 1
	if n := len(names); n > 0 {
		fmt.Sscanf(names[n-1], "seg-%06d.log", &l.activeSeg)
	} else {
		l.segments = 1
	}
	path := filepath.Join(dir, segName(l.activeSeg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l.active = f
	l.activeSize = st.Size()
	if len(l.pending) > 0 {
		l.pendingAt = time.Now()
	}
	go l.sealLoop()
	return l, nil
}

func segmentNames(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var names []string
	for _, de := range des {
		if n := de.Name(); strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".log") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// loadSegment scans one segment, quarantining damage and (for the last
// segment only) truncating a torn tail so the file is appendable again.
func (l *Ledger) loadSegment(path string, last bool) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	off, lastGood := 0, 0
	for off < len(buf) {
		typ, payload, next, ok, crcOK := decodeEntry(buf, off)
		if !ok {
			if last {
				l.notes = append(l.notes, fmt.Sprintf(
					"%s: torn or corrupt entry at offset %d; truncated %d bytes",
					filepath.Base(path), off, len(buf)-lastGood))
				if err := os.Truncate(path, int64(lastGood)); err != nil {
					return fmt.Errorf("ledger: truncating torn tail of %s: %w", path, err)
				}
				buf = buf[:lastGood]
			} else {
				l.notes = append(l.notes, fmt.Sprintf(
					"%s: unreadable from offset %d; %d bytes skipped",
					filepath.Base(path), off, len(buf)-off))
			}
			break
		}
		if !crcOK {
			e := &entry{payload: append([]byte(nil), payload...), leaf: leafHash(payload),
				batch: -1, reject: "checksum mismatch"}
			l.entries = append(l.entries, e)
			l.pending = append(l.pending, e)
			l.rejected++
		} else {
			switch typ {
			case entryVerdict:
				l.loadVerdict(payload)
			case entrySeal:
				l.loadSeal(payload)
			default:
				l.rejected++
				l.notes = append(l.notes, fmt.Sprintf("unknown entry type %d skipped", typ))
			}
		}
		off, lastGood = next, next
	}
	l.bytes += int64(len(buf))
	return nil
}

func (l *Ledger) loadVerdict(payload []byte) {
	e := &entry{payload: append([]byte(nil), payload...), leaf: leafHash(payload), batch: -1}
	l.entries = append(l.entries, e)
	l.pending = append(l.pending, e)
	if err := json.Unmarshal(e.payload, &e.rec); err != nil {
		e.reject = "undecodable record: " + err.Error()
		l.rejected++
		return
	}
	if e.rec.Seq >= l.nextSeq {
		l.nextSeq = e.rec.Seq + 1
	}
	crt, err := l.VerifyRecord(&e.rec)
	if err != nil {
		e.reject = err.Error()
		l.rejected++
		return
	}
	e.crt = crt
	l.byKey[e.rec.KeyHash] = e
}

func (l *Ledger) loadSeal(payload []byte) {
	var s Seal
	if err := json.Unmarshal(payload, &s); err != nil {
		l.condemnPending("undecodable seal: " + err.Error())
		return
	}
	leaves := make([][32]byte, len(l.pending))
	for i, e := range l.pending {
		leaves[i] = e.leaf
	}
	root := merkleRoot(leaves)
	want := chainHash(l.chain, root)
	switch {
	case s.Count != len(l.pending):
		l.condemnPending(fmt.Sprintf("seal %d covers %d records but %d are on disk", s.Batch, s.Count, len(l.pending)))
	case s.Root != hex.EncodeToString(root[:]):
		l.condemnPending(fmt.Sprintf("seal %d root mismatch: recomputed %x, sealed %s", s.Batch, root, s.Root))
	case s.Prev != hex.EncodeToString(l.chain[:]) || s.Chain != hex.EncodeToString(want[:]):
		l.condemnPending(fmt.Sprintf("seal %d breaks the hash chain", s.Batch))
	default:
		sb := &sealedBatch{seal: s, leaves: leaves}
		for i, e := range l.pending {
			e.batch, e.leafIdx = len(l.seals), i
		}
		l.seals = append(l.seals, sb)
		l.chain = want
		l.pending = nil
		return
	}
	// The broken seal's chain value is adopted so later seals can still be
	// checked for internal consistency; the break itself stays on record.
	if b, err := hex.DecodeString(s.Chain); err == nil && len(b) == 32 {
		copy(l.chain[:], b)
	}
}

// condemnPending quarantines every record the failed seal covered.
func (l *Ledger) condemnPending(why string) {
	l.broken = true
	l.notes = append(l.notes, why)
	for _, e := range l.pending {
		e.batch = -2
		if e.reject == "" {
			e.reject = why
			l.rejected++
			if l.byKey[e.rec.KeyHash] == e {
				delete(l.byKey, e.rec.KeyHash)
			}
		}
	}
	l.pending = nil
}

// VerifyRecord replays one record's evidence: the certificate must parse,
// agree with the record's verdict and relation, re-derive the record's
// canonical pair key from its own terms, and be accepted by the independent
// verifier. It returns the parsed certificate on success.
func (l *Ledger) VerifyRecord(r *Record) (*cert.Certificate, error) {
	crt, err := cert.Unmarshal(r.Cert)
	if err != nil {
		return nil, fmt.Errorf("certificate does not parse: %w", err)
	}
	if crt.Relation != r.Rel || crt.Weak != r.Weak {
		return nil, fmt.Errorf("certificate is for %s weak=%t, record claims %s weak=%t",
			crt.Relation, crt.Weak, r.Rel, r.Weak)
	}
	if crt.Related != r.Related {
		return nil, fmt.Errorf("record verdict related=%t but certificate proves related=%t",
			r.Related, crt.Related)
	}
	key, err := CertKey(crt)
	if err != nil {
		return nil, err
	}
	if key != r.Key || KeyHash(key) != r.KeyHash {
		return nil, fmt.Errorf("certificate terms derive key %q, record claims %q", key, r.Key)
	}
	if err := l.verifier.Verify(crt); err != nil {
		return nil, fmt.Errorf("certificate rejected: %w", err)
	}
	return crt, nil
}

// Append assigns the next sequence number, writes the record, and returns
// the sequence. Records reaching the configured batch size seal immediately;
// otherwise the background sealer seals them within MaxWait. Append never
// fsyncs — durability is batched at seal time.
func (l *Ledger) Append(r Record) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	r.Seq = l.nextSeq
	l.nextSeq++
	if r.UnixNano == 0 {
		r.UnixNano = time.Now().UnixNano()
	}
	payload, err := json.Marshal(r)
	if err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("ledger: %w", err)
	}
	if err := l.writeLocked(encodeEntry(entryVerdict, payload)); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	e := &entry{rec: r, payload: payload, leaf: leafHash(payload), batch: -1}
	l.entries = append(l.entries, e)
	if len(l.pending) == 0 {
		l.pendingAt = time.Now()
	}
	l.pending = append(l.pending, e)
	l.byKey[r.KeyHash] = e
	l.appended++
	full := len(l.pending) >= l.cfg.batchSize()
	l.mu.Unlock()
	if full {
		if err := l.Seal(); err != nil {
			return 0, err
		}
	} else {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return r.Seq, nil
}

// writeLocked appends one framed entry to the active segment, rolling to a
// fresh segment past the size bound.
func (l *Ledger) writeLocked(frame []byte) error {
	if l.activeSize > 0 && l.activeSize+int64(len(frame)) > l.cfg.segmentBytes() {
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		l.activeSeg++
		l.segments++
		f, err := os.OpenFile(filepath.Join(l.dir, segName(l.activeSeg)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		l.active = f
		l.activeSize = 0
	}
	if _, err := l.active.Write(frame); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.activeSize += int64(len(frame))
	l.bytes += int64(len(frame))
	return nil
}

// Seal closes the pending batch: it builds the Merkle tree, appends the seal
// entry and fsyncs. A ledger with nothing pending seals to a no-op.
func (l *Ledger) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

func (l *Ledger) sealLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	leaves := make([][32]byte, len(l.pending))
	var firstSeq uint64
	for i, e := range l.pending {
		leaves[i] = e.leaf
		if firstSeq == 0 && e.rec.Seq > 0 {
			firstSeq = e.rec.Seq
		}
	}
	root := merkleRoot(leaves)
	chain := chainHash(l.chain, root)
	s := Seal{
		Batch:    len(l.seals),
		FirstSeq: firstSeq,
		Count:    len(l.pending),
		Root:     hex.EncodeToString(root[:]),
		Prev:     hex.EncodeToString(l.chain[:]),
		Chain:    hex.EncodeToString(chain[:]),
		UnixNano: time.Now().UnixNano(),
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := l.writeLocked(encodeEntry(entrySeal, payload)); err != nil {
		return err
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	for i, e := range l.pending {
		e.batch, e.leafIdx = len(l.seals), i
	}
	l.seals = append(l.seals, &sealedBatch{seal: s, leaves: leaves})
	l.chain = chain
	l.sealWait += time.Since(l.pendingAt).Seconds()
	l.sealsDone++
	l.pending = nil
	return nil
}

// sealLoop enforces the MaxWait latency bound on unsealed records.
func (l *Ledger) sealLoop() {
	defer close(l.done)
	if l.cfg.maxWait() < 0 {
		<-l.stop
		return
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		l.mu.Lock()
		var wait time.Duration = -1
		if len(l.pending) > 0 {
			wait = l.cfg.maxWait() - time.Since(l.pendingAt)
			if wait < 0 {
				wait = 0
			}
		}
		l.mu.Unlock()
		if wait < 0 {
			select {
			case <-l.kick:
				continue
			case <-l.stop:
				return
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-l.kick:
			continue
		case <-l.stop:
			return
		case <-timer.C:
			_ = l.Seal()
		}
	}
}

// Close closes the log. When this process appended records, it first seals
// everything pending, records read at Open included. A ledger that appended
// nothing (an inspection) leaves the log as it found it: an unsealed tail
// belongs to the writer that holds it in memory, and sealing it here would
// make that writer's next seal claim records that are already sealed on
// disk. Safe to call twice.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.appended > 0 {
		err = l.sealLocked()
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay calls fn, in append order, for every record that was read from disk
// at Open and survived all three trust layers, together with its parsed
// certificate. Records appended by this process are not replayed (the caller
// produced them).
func (l *Ledger) Replay(fn func(r *Record, crt *cert.Certificate)) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if e.reject == "" && e.crt != nil {
			fn(&e.rec, e.crt)
			n++
		}
	}
	return n
}

// Rejections lists the quarantined records' reasons, in log order.
func (l *Ledger) Rejections() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, e := range l.entries {
		if e.reject != "" {
			out = append(out, fmt.Sprintf("seq %d: %s", e.rec.Seq, e.reject))
		}
	}
	return out
}

// Proof builds the inclusion proof for the latest sealed trusted record of
// the given key hash. ErrUnknownKey when no trusted record has the key;
// ErrPending when the only trusted records are still unsealed.
func (l *Ledger) Proof(keyHash string) (*InclusionProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byKey[keyHash]
	if !ok {
		return nil, ErrUnknownKey
	}
	if e.batch < 0 {
		// The newest record is unsealed; an older sealed one still proves.
		e = nil
		for i := len(l.entries) - 1; i >= 0; i-- {
			c := l.entries[i]
			if c.reject == "" && c.rec.KeyHash == keyHash && c.batch >= 0 {
				e = c
				break
			}
		}
		if e == nil {
			return nil, ErrPending
		}
	}
	sb := l.seals[e.batch]
	path := auditPath(sb.leaves, e.leafIdx)
	audit := make([]string, len(path))
	for i, h := range path {
		audit[i] = hex.EncodeToString(h[:])
	}
	return &InclusionProof{
		Key:     e.rec.Key,
		KeyHash: keyHash,
		Seq:     e.rec.Seq,
		Batch:   e.batch,
		Leaf:    e.leafIdx,
		Count:   len(sb.leaves),
		Record:  append(json.RawMessage(nil), e.payload...),
		Audit:   audit,
		Root:    sb.seal.Root,
		Prev:    sb.seal.Prev,
		Chain:   sb.seal.Chain,
	}, nil
}

// Export writes every trusted record as one JSON line, returning the count.
func (l *Ledger) Export(w io.Writer) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if e.reject != "" {
			continue
		}
		if _, err := w.Write(append(append([]byte(nil), e.payload...), '\n')); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	trusted := 0
	for _, e := range l.entries {
		if e.reject == "" {
			trusted++
		}
	}
	return Stats{
		Records:         trusted,
		Rejected:        l.rejected,
		Pending:         len(l.pending),
		Batches:         len(l.seals),
		NextSeq:         l.nextSeq,
		ChainHead:       hex.EncodeToString(l.chain[:]),
		ChainBroken:     l.broken,
		Segments:        l.segments,
		Bytes:           l.bytes,
		Appended:        l.appended,
		Seals:           l.sealsDone,
		SealWaitSeconds: l.sealWait,
		Notes:           append([]string(nil), l.notes...),
	}
}
