// Package ledger is bpid's persistent, tamper-evident verdict store: a
// disk-backed, content-addressed, append-only log of certified equivalence
// verdicts that survives the process and warm-starts the next one.
//
// Layout: numbered segment files (seg-000001.log, …) of length-prefixed,
// CRC-32C-checksummed entries. Two entry kinds interleave in append order:
// verdict records (Record) and batch seals (Seal). Appended records
// accumulate into a pending batch; sealing builds an RFC 6962-shaped Merkle
// tree over the records' on-disk payload bytes, and the sealed roots chain
// hash-linked from a fixed genesis value, so any record can produce a
// compact inclusion proof (InclusionProof) verifiable from a root alone,
// and rewriting any sealed byte breaks the chain.
//
// Open rescans the whole log and builds an in-memory index: for each record
// its key hash and budgets, where its frame lives, its Merkle leaf hash, its
// batch and its trust state. No payload, Record or certificate stays in
// memory, for records read at Open or appended since alike. Open does not
// decode a record: one pass over its payload (readIndex) checks that it is
// well-formed JSON and reads the five index fields where they are written
// plainly. Any other payload is decoded by json.Unmarshal, the reference
// the pass agrees with, so every index entry, quarantine and reason is the
// one a full decode gives.
//
// Trust is layered and fail-closed, per record:
//
//   - framing integrity, at Open: a torn tail write is noted, and cut only
//     just before this process's first write; a framed entry whose checksum
//     fails is quarantined and skipped (length-prefix framing keeps the rest
//     of the log readable);
//   - batch integrity, at Open: a seal whose recomputed root or chain link
//     does not match condemns every record it covers (and flags the chain
//     broken);
//   - semantic trust, at the record's first read: the read re-reads the
//     frame, checks its bytes against the leaf hash indexed at Open, and
//     replays the record through the independent certificate verifier
//     (internal/cert), whose terms must re-derive the record's canonical
//     pair key — so a flipped verdict, a swapped certificate or a remapped
//     key is rejected without trusting the binary that wrote the log.
//
// Every read that hands a record out — Lookup, Replay, Proof and Export —
// is that one verified read. A record that fails it is quarantined and
// counted, and never handed out.
//
// The package owns pair identity: QueryKey maps a query and CertKey a
// certificate to the pair key, and they alone choose the term form — the
// simplified terms, except under ~c, whose key keeps the terms as queried
// because Simplify drops matches that a substitution would fire. The
// daemon's verdict cache and every record key use them.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
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

// errQuarantined is the read of a record already quarantined.
var errQuarantined = errors.New("ledger: record quarantined")

// The trust states of an indexed record.
const (
	unread      uint8 = iota // indexed at Open, its certificate not verified yet
	verified                 // verified at its first read, or appended by this process
	quarantined              // rejected; never handed out
)

// The batch of a record that no intact seal covers.
const (
	batchPending   = -1
	batchCondemned = -2
)

// entry indexes one record: what its verified read needs, and nothing of
// its payload.
type entry struct {
	leaf                          [32]byte // Merkle leaf hash of the payload
	seq                           uint64
	off                           int64 // frame offset in its segment
	maxPairs, maxClosure, maxSubs int
	seg                           int32 // segment number
	size                          int32 // payload bytes
	batch                         int32 // index into seals, or batchPending / batchCondemned
	prev                          int32 // the next older entry under the same key prefix, or -1
	state                         uint8
}

// sealedBatch is one intact seal and the entries it covers:
// entries[first : first+seal.Count].
type sealedBatch struct {
	seal  Seal
	first int32
}

// keyPrefix is the index key of a key hash: its first eight bytes. Keys
// that share a prefix share a chain of entries, and a read checks the
// full key.
func keyPrefix(h []byte) uint64 { return binary.BigEndian.Uint64(h) }

// Stats is a point-in-time summary of the ledger.
type Stats struct {
	// Records counts indexed records not quarantined: each is verified at
	// its first read. Rejected counts quarantined ones, at Open or at a
	// read, whatever the layer that rejected them.
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
	// Notes are recovery observations from Open (torn tail, condemned
	// batches).
	Notes []string `json:"notes,omitempty"`
}

// Ledger is an open verdict log. All methods are safe for concurrent use.
type Ledger struct {
	dir      string
	cfg      Config
	verifier *cert.Verifier

	// wmu serializes the writers, Append and Seal, and guards the active
	// segment. It is held across a write and a seal's fsync, which mu never
	// is, so reads of the index never wait on the disk.
	wmu        sync.Mutex
	active     *os.File // opened for appending at this process's first write
	activeSeg  int
	activeSize int64
	torn       bool   // the active segment has a torn tail past activeSize
	frame      []byte // the frame being written, its storage reused

	mu          sync.Mutex
	segments    int
	bytes       int64
	nextSeq     uint64
	entries     []entry
	byKey       map[uint64]int32        // key prefix → newest entry
	reasons     map[int32]string        // quarantined entry → why
	verifying   map[int32]chan struct{} // entries whose first read runs now
	seals       []sealedBatch
	chain       [32]byte
	broken      bool
	pendingFrom int32 // entries[pendingFrom:] await their seal
	pendingAt   time.Time
	quarantined int // entries quarantined
	skipped     int // entries of an unknown type
	notes       []string
	appended    uint64
	sealsDone   uint64
	sealWait    float64
	closed      bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func segName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// Open scans the ledger under dir and indexes it: framing, checksums,
// Merkle roots and the seal chain are checked now, each record's
// certificate at its first read. Open writes nothing: a torn tail of the
// last segment is noted, and cut just before this process's first write. A
// missing dir is created empty.
func Open(dir string, cfg Config) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{
		dir:       dir,
		cfg:       cfg,
		verifier:  &cert.Verifier{Sys: semantics.NewSystem(cfg.Env)},
		byKey:     map[uint64]int32{},
		reasons:   map[int32]string{},
		verifying: map[int32]chan struct{}{},
		chain:     genesisChain(),
		nextSeq:   1,
		activeSeg: 1,
		segments:  1,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		var seg int
		if _, err := fmt.Sscanf(name, "seg-%06d.log", &seg); err != nil {
			return nil, fmt.Errorf("ledger: segment name %s: %w", name, err)
		}
		if err := l.scanSegment(seg, i == len(names)-1); err != nil {
			return nil, err
		}
		l.activeSeg = seg
	}
	if len(names) > 0 {
		l.segments = len(names)
	}
	// The scan grew the index by appending; keep only what it holds.
	l.entries = append(make([]entry, 0, len(l.entries)), l.entries...)
	if l.hasPendingLocked() {
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

// scanSegment indexes one segment, quarantining damage. In the last
// segment it notes a torn tail, which the first write cuts.
func (l *Ledger) scanSegment(seg int, last bool) error {
	path := filepath.Join(l.dir, segName(seg))
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	off := 0
	for off < len(buf) {
		typ, payload, next, ok, crcOK := decodeEntry(buf, off)
		if !ok {
			if last {
				l.torn = true
				l.notes = append(l.notes, fmt.Sprintf(
					"%s: torn or corrupt entry at offset %d; its %d bytes are truncated before the first write",
					filepath.Base(path), off, len(buf)-off))
			} else {
				l.notes = append(l.notes, fmt.Sprintf(
					"%s: unreadable from offset %d; %d bytes skipped",
					filepath.Base(path), off, len(buf)-off))
			}
			break
		}
		switch {
		case !crcOK:
			l.addLocked(entry{seg: int32(seg), off: int64(off)}, payload, "", "checksum mismatch")
		case typ == entryVerdict:
			l.indexVerdict(seg, off, payload)
		case typ == entrySeal:
			l.loadSeal(payload)
		default:
			l.skipped++
			l.notes = append(l.notes, fmt.Sprintf("unknown entry type %d skipped", typ))
		}
		off = next
	}
	if last {
		l.activeSize = int64(off)
		l.bytes += int64(off)
	} else {
		l.bytes += int64(len(buf))
	}
	return nil
}

// indexVerdict indexes one verdict frame from its index fields, which
// readIndex reads without decoding the record.
func (l *Ledger) indexVerdict(seg, off int, payload []byte) {
	e := entry{seg: int32(seg), off: int64(off)}
	f, err := readIndex(payload)
	if err != nil {
		l.addLocked(e, payload, "", "undecodable record: "+err.Error())
		return
	}
	if f.Seq >= l.nextSeq {
		l.nextSeq = f.Seq + 1
	}
	e.seq, e.maxPairs, e.maxClosure, e.maxSubs = f.Seq, f.MaxPairs, f.MaxClosure, f.MaxSubs
	l.addLocked(e, payload, f.KeyHash, "")
}

// addLocked indexes a record frame as pending: under its key hash, or
// quarantined at once with reject.
func (l *Ledger) addLocked(e entry, payload []byte, keyHash, reject string) {
	i := int32(len(l.entries))
	e.leaf = leafHash(payload)
	e.size = int32(len(payload))
	e.batch = batchPending
	e.prev = -1
	if reject == "" {
		if h, err := hex.DecodeString(keyHash); err == nil && len(h) == sha256.Size {
			if p, ok := l.byKey[keyPrefix(h)]; ok {
				e.prev = p
			}
			l.byKey[keyPrefix(h)] = i
		} else {
			reject = "record has no valid key hash"
		}
	}
	l.entries = append(l.entries, e)
	if reject != "" {
		l.quarantineLocked(i, reject)
	}
}

func (l *Ledger) quarantineLocked(i int32, why string) {
	l.entries[i].state = quarantined
	l.reasons[i] = why
	l.quarantined++
}

func (l *Ledger) hasPendingLocked() bool { return int(l.pendingFrom) < len(l.entries) }

// leavesLocked returns the leaf hashes of entries[from:to].
func (l *Ledger) leavesLocked(from, to int32) [][32]byte {
	leaves := make([][32]byte, 0, to-from)
	for _, e := range l.entries[from:to] {
		leaves = append(leaves, e.leaf)
	}
	return leaves
}

func (l *Ledger) loadSeal(payload []byte) {
	var s Seal
	if err := json.Unmarshal(payload, &s); err != nil {
		l.condemnPending("undecodable seal: " + err.Error())
		return
	}
	n := int32(len(l.entries))
	root := merkleRoot(l.leavesLocked(l.pendingFrom, n))
	want := chainHash(l.chain, root)
	switch {
	case s.Count != int(n-l.pendingFrom):
		l.condemnPending(fmt.Sprintf("seal %d covers %d records but %d are on disk", s.Batch, s.Count, n-l.pendingFrom))
	case s.Root != hex.EncodeToString(root[:]):
		l.condemnPending(fmt.Sprintf("seal %d root mismatch: recomputed %x, sealed %s", s.Batch, root, s.Root))
	case s.Prev != hex.EncodeToString(l.chain[:]) || s.Chain != hex.EncodeToString(want[:]):
		l.condemnPending(fmt.Sprintf("seal %d breaks the hash chain", s.Batch))
	default:
		l.sealPendingLocked(s, want)
		return
	}
	// The broken seal's chain value is adopted so later seals can still be
	// checked for internal consistency; the break itself stays on record.
	if b, err := hex.DecodeString(s.Chain); err == nil && len(b) == 32 {
		copy(l.chain[:], b)
	}
}

// sealPendingLocked makes s, whose chain value is chain, the seal of every
// pending entry.
func (l *Ledger) sealPendingLocked(s Seal, chain [32]byte) {
	b := int32(len(l.seals))
	for i := range l.entries[l.pendingFrom:] {
		l.entries[int(l.pendingFrom)+i].batch = b
	}
	l.seals = append(l.seals, sealedBatch{seal: s, first: l.pendingFrom})
	l.chain = chain
	l.pendingFrom = int32(len(l.entries))
}

// condemnPending quarantines every record the failed seal covered.
func (l *Ledger) condemnPending(why string) {
	l.broken = true
	l.notes = append(l.notes, why)
	for i := l.pendingFrom; i < int32(len(l.entries)); i++ {
		l.entries[i].batch = batchCondemned
		if l.entries[i].state != quarantined {
			l.quarantineLocked(i, why)
		}
	}
	l.pendingFrom = int32(len(l.entries))
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

// read is the one verified read that every record handed out passes. It
// re-reads entry i's frame and checks the bytes against the leaf hash
// indexed when the entry was, so a rewrite since is caught. At the entry's
// first read it also runs VerifyRecord, outside the mutex; concurrent first
// reads of one entry wait for that one verification. A failure quarantines
// the entry. read returns the record, its parsed certificate and its
// payload bytes.
func (l *Ledger) read(i int32) (*Record, *cert.Certificate, []byte, error) {
	l.mu.Lock()
	for {
		if l.entries[i].state == quarantined {
			l.mu.Unlock()
			return nil, nil, nil, errQuarantined
		}
		busy, ok := l.verifying[i]
		if !ok {
			break
		}
		l.mu.Unlock()
		<-busy
		l.mu.Lock()
	}
	e := l.entries[i]
	first := e.state == unread
	var done chan struct{}
	if first {
		done = make(chan struct{})
		l.verifying[i] = done
	}
	l.mu.Unlock()

	rec, crt, payload, err := l.load(e, first)

	l.mu.Lock()
	defer l.mu.Unlock()
	if first {
		delete(l.verifying, i)
		close(done)
	}
	switch {
	case err != nil && l.entries[i].state != quarantined:
		l.quarantineLocked(i, err.Error())
	case err == nil && first:
		l.entries[i].state = verified
	}
	return rec, crt, payload, err
}

// load reads entry e's frame back and decodes its record and certificate,
// which, with verify, VerifyRecord replays.
func (l *Ledger) load(e entry, verify bool) (*Record, *cert.Certificate, []byte, error) {
	frame, err := l.readFrame(e)
	if err != nil {
		return nil, nil, nil, err
	}
	_, payload, _, ok, crcOK := decodeEntry(frame, 0)
	if !ok || !crcOK || leafHash(payload) != e.leaf {
		return nil, nil, nil, errors.New("record bytes changed on disk since they were indexed")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, nil, nil, fmt.Errorf("undecodable record: %w", err)
	}
	var crt *cert.Certificate
	if verify {
		crt, err = l.VerifyRecord(&rec)
	} else if crt, err = cert.Unmarshal(rec.Cert); err != nil {
		err = fmt.Errorf("certificate does not parse: %w", err)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return &rec, crt, payload, nil
}

// readFrame reads entry e's whole frame from its segment.
func (l *Ledger) readFrame(e entry) ([]byte, error) {
	f, err := os.Open(filepath.Join(l.dir, segName(int(e.seg))))
	if err != nil {
		return nil, fmt.Errorf("record unreadable: %w", err)
	}
	defer f.Close()
	frame := make([]byte, headerBytes+int(e.size)+trailerBytes)
	if _, err := f.ReadAt(frame, e.off); err != nil {
		return nil, fmt.Errorf("record unreadable: %w", err)
	}
	return frame, nil
}

// candidates lists, newest first, the entries not quarantined whose key
// hash starts as h does and that keep accepts.
func (l *Ledger) candidates(h []byte, keep func(*entry) bool) []int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int32
	i, ok := l.byKey[keyPrefix(h)]
	for ; ok && i >= 0; i = l.entries[i].prev {
		if e := &l.entries[i]; e.state != quarantined && (keep == nil || keep(e)) {
			out = append(out, i)
		}
	}
	return out
}

// Lookup returns the newest record of the pair key computed under the
// given budgets, with its parsed certificate, once the record passes its
// verified read. ok is false when the ledger holds no such record, or
// every such record failed its read and is quarantined now.
func (l *Ledger) Lookup(key string, maxPairs, maxClosure, maxSubs int) (*Record, *cert.Certificate, bool) {
	h := sha256.Sum256([]byte(key))
	for _, i := range l.candidates(h[:], func(e *entry) bool {
		return e.maxPairs == maxPairs && e.maxClosure == maxClosure && e.maxSubs == maxSubs
	}) {
		if r, crt, _, err := l.read(i); err == nil && r.Key == key {
			return r, crt, true
		}
	}
	return nil, nil, false
}

// count is the number of entries indexed so far.
func (l *Ledger) count() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int32(len(l.entries))
}

// Replay calls fn, in log order, for every record that passes its verified
// read, with its parsed certificate, and returns how many it called fn
// for. Each record not read before is verified now, so after Replay, Stats
// counts exactly the records Replay passed to fn.
func (l *Ledger) Replay(fn func(r *Record, crt *cert.Certificate)) int {
	n := 0
	for i, end := int32(0), l.count(); i < end; i++ {
		if r, crt, _, err := l.read(i); err == nil {
			fn(r, crt)
			n++
		}
	}
	return n
}

// Rejections lists the quarantined records' reasons, in log order.
func (l *Ledger) Rejections() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := make([]int32, 0, len(l.reasons))
	for i := range l.reasons {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = fmt.Sprintf("seq %d: %s", l.entries[i].seq, l.reasons[i])
	}
	return out
}

// Append assigns the next sequence number, writes the record, indexes it,
// and returns the sequence. The record counts as verified: its certificate
// comes from the caller, and Import verifies one before it appends it.
// Records reaching the configured batch size seal immediately; otherwise
// the background sealer seals them within MaxWait. Append never fsyncs —
// durability is batched at seal time.
func (l *Ledger) Append(r Record) (uint64, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	closed := l.closed
	if !closed {
		r.Seq = l.nextSeq
		l.nextSeq++
	}
	l.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if r.UnixNano == 0 {
		r.UnixNano = time.Now().UnixNano()
	}
	frame, err := encodeEntry(l.frame, entryVerdict, &r)
	if err != nil {
		return 0, fmt.Errorf("ledger: %w", err)
	}
	l.frame = frame
	payload := frame[headerBytes : len(frame)-trailerBytes]
	seg, off, err := l.write(frame)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	if !l.hasPendingLocked() {
		l.pendingAt = time.Now()
	}
	l.addLocked(entry{seq: r.Seq, seg: int32(seg), off: off, state: verified,
		maxPairs: r.MaxPairs, maxClosure: r.MaxClosure, maxSubs: r.MaxSubs}, payload, r.KeyHash, "")
	l.appended++
	full := len(l.entries)-int(l.pendingFrom) >= l.cfg.batchSize()
	l.mu.Unlock()
	if full {
		if err := l.seal(); err != nil {
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

// openActive readies the active segment for this process's first write.
// Only now is a torn tail found at Open cut, so a process that only reads
// the log leaves it as it found it. The caller holds wmu.
func (l *Ledger) openActive() error {
	if l.active != nil {
		return nil
	}
	path := filepath.Join(l.dir, segName(l.activeSeg))
	if l.torn {
		if err := os.Truncate(path, l.activeSize); err != nil {
			return fmt.Errorf("ledger: truncating torn tail of %s: %w", path, err)
		}
		l.torn = false
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.active = f
	return nil
}

// write appends one framed entry to the active segment, rolling to a fresh
// segment past the size bound, and returns where the frame starts. The
// caller holds wmu.
func (l *Ledger) write(frame []byte) (seg int, off int64, err error) {
	if err := l.openActive(); err != nil {
		return 0, 0, err
	}
	if l.activeSize > 0 && l.activeSize+int64(len(frame)) > l.cfg.segmentBytes() {
		err := l.active.Close()
		l.active = nil
		if err != nil {
			return 0, 0, fmt.Errorf("ledger: %w", err)
		}
		l.activeSeg++
		l.activeSize = 0
		l.mu.Lock()
		l.segments++
		l.mu.Unlock()
		if err := l.openActive(); err != nil {
			return 0, 0, err
		}
	}
	if _, err := l.active.Write(frame); err != nil {
		return 0, 0, fmt.Errorf("ledger: %w", err)
	}
	off = l.activeSize
	l.activeSize += int64(len(frame))
	l.mu.Lock()
	l.bytes += int64(len(frame))
	l.mu.Unlock()
	return l.activeSeg, off, nil
}

// Seal closes the pending batch: it builds the Merkle tree, appends the seal
// entry and fsyncs. A ledger with nothing pending seals to a no-op.
func (l *Ledger) Seal() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.seal()
}

// seal is Seal for a caller that holds wmu, so no record joins the batch
// while its seal is written.
func (l *Ledger) seal() error {
	l.mu.Lock()
	if !l.hasPendingLocked() {
		l.mu.Unlock()
		return nil
	}
	leaves := l.leavesLocked(l.pendingFrom, int32(len(l.entries)))
	var firstSeq uint64
	for _, e := range l.entries[l.pendingFrom:] {
		if e.seq > 0 {
			firstSeq = e.seq
			break
		}
	}
	batch, prev := len(l.seals), l.chain
	l.mu.Unlock()
	root := merkleRoot(leaves)
	chain := chainHash(prev, root)
	s := Seal{
		Batch:    batch,
		FirstSeq: firstSeq,
		Count:    len(leaves),
		Root:     hex.EncodeToString(root[:]),
		Prev:     hex.EncodeToString(prev[:]),
		Chain:    hex.EncodeToString(chain[:]),
		UnixNano: time.Now().UnixNano(),
	}
	frame, err := encodeEntry(l.frame, entrySeal, s)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.frame = frame
	if _, _, err := l.write(frame); err != nil {
		return err
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealPendingLocked(s, chain)
	l.sealWait += time.Since(l.pendingAt).Seconds()
	l.sealsDone++
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
		if l.hasPendingLocked() {
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
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	appended := l.appended
	l.mu.Unlock()
	var err error
	if appended > 0 {
		err = l.seal()
	}
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Proof builds the inclusion proof for the newest sealed record of the
// given key hash that passes its verified read. ErrUnknownKey when no
// record of the key passes; ErrPending when the only ones that pass are
// still unsealed.
func (l *Ledger) Proof(keyHash string) (*InclusionProof, error) {
	h, err := hex.DecodeString(keyHash)
	if err != nil || len(h) != sha256.Size {
		return nil, ErrUnknownKey
	}
	pending := false
	for _, i := range l.candidates(h, nil) {
		r, _, payload, err := l.read(i)
		if err != nil || r.KeyHash != keyHash {
			continue
		}
		l.mu.Lock()
		b := l.entries[i].batch
		if b < 0 {
			l.mu.Unlock()
			pending = true // an older sealed record may still prove
			continue
		}
		sb := l.seals[b]
		leaves := l.leavesLocked(sb.first, sb.first+int32(sb.seal.Count))
		l.mu.Unlock()
		leaf := int(i - sb.first)
		path := auditPath(leaves, leaf)
		audit := make([]string, len(path))
		for k, h := range path {
			audit[k] = hex.EncodeToString(h[:])
		}
		return &InclusionProof{
			Key:     r.Key,
			KeyHash: keyHash,
			Seq:     r.Seq,
			Batch:   int(b),
			Leaf:    leaf,
			Count:   len(leaves),
			Record:  payload,
			Audit:   audit,
			Root:    sb.seal.Root,
			Prev:    sb.seal.Prev,
			Chain:   sb.seal.Chain,
		}, nil
	}
	if pending {
		return nil, ErrPending
	}
	return nil, ErrUnknownKey
}

// Export writes every record that passes its verified read as one JSON
// line, in log order, returning the count.
func (l *Ledger) Export(w io.Writer) (int, error) {
	n := 0
	for i, end := int32(0), l.count(); i < end; i++ {
		_, _, payload, err := l.read(i)
		if err != nil {
			continue
		}
		if _, err := w.Write(append(payload, '\n')); err != nil {
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
	return Stats{
		Records:         len(l.entries) - l.quarantined,
		Rejected:        l.quarantined + l.skipped,
		Pending:         len(l.entries) - int(l.pendingFrom),
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
