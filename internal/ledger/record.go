package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/syntax"
)

// Record is one persisted verdict: the canonical pair key, the verdict with
// its Result metadata, the budgets it was computed under (so a daemon finds
// it under the exact verdict-cache key of a query), and the marshalled
// certificate that makes the record trustworthy across binary versions.
type Record struct {
	// Seq is the ledger-assigned append sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Key is the canonical pair key of the certificate's pair (CertKey).
	// KeyHash is its SHA-256 in hex, the URL-safe address of the record.
	Key     string `json:"key"`
	KeyHash string `json:"key_hash"`

	Rel     string `json:"rel"`
	Weak    bool   `json:"weak,omitempty"`
	P       string `json:"p"`
	Q       string `json:"q"`
	Related bool   `json:"related"`
	Pairs   int    `json:"pairs,omitempty"`
	Reason  string `json:"reason,omitempty"`

	// Budgets the verdict was computed under. A conclusive verdict is a pure
	// function of the canonical pair and the relation alone; the budgets are
	// carried only so Lookup answers the daemon's budget-keyed LRU exactly.
	MaxPairs   int `json:"max_pairs,omitempty"`
	MaxClosure int `json:"max_closure,omitempty"`
	MaxSubs    int `json:"max_subs,omitempty"`

	// UnixNano is the append wall-clock time (informational only).
	UnixNano int64 `json:"t,omitempty"`

	// Cert is the marshalled internal/cert certificate. The ledger hands a
	// record out only after the independent verifier accepts this
	// certificate and its terms re-derive Key.
	Cert json.RawMessage `json:"cert"`
}

// PairKey builds the canonical ledger key from the relation spec and the two
// alpha-class keys of the sides (see QueryKey for which term form each
// relation keys). All the paper's relations are symmetric, so the sides are
// ordered lexicographically and one key serves both orientations.
func PairKey(rel string, weak bool, kp, kq string) string {
	if kq < kp {
		kp, kq = kq, kp
	}
	return fmt.Sprintf("%s|%t|%s|%s", rel, weak, kp, kq)
}

// KeyHash is the hex SHA-256 of a logical pair key — the address used by
// GET /v1/ledger/proof/{key} and `bpiledger proof -key`.
func KeyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// QueryKey is the pair key of a query on p and q. It is the one place that
// chooses the term form: the ~c key uses the terms as given, because
// Simplify drops matches on distinct free names that a fusion would fire,
// so two pairs with one simplified form can differ under ~c; the other four
// relations are Simplify-invariant and key the simplified terms.
func QueryKey(rel string, weak bool, p, q syntax.Proc) string {
	if rel != cert.RelCongruence {
		p, q = syntax.Simplify(p), syntax.Simplify(q)
	}
	return PairKey(rel, weak, syntax.Key(p), syntax.Key(q))
}

// MaxTermBytes is the term cap: the bound on the source of one bpid
// request term, and the base of the bound on a certificate term.
const MaxTermBytes = 64 << 10

// certTermBytes bounds a certificate term, checked before it is parsed. A
// certificate names its terms as printed, and the printer can spell a term
// longer than its source: up to 7/3 as long ("a?|a?" prints "a?() | a?()"),
// and a 64 KiB request of nested prefixes "a?." prints 109,219 bytes. Four
// times the cap admits the certificate of every request term within it.
const certTermBytes = 4 * MaxTermBytes

// ErrTermTooLarge is wrapped by CertKey's error for a certificate term past
// its bound.
var ErrTermTooLarge = errors.New("ledger: certificate term too large")

// checkTermBytes refuses a certificate with a term past its bound.
func checkTermBytes(crt *cert.Certificate) error {
	for _, t := range []string{crt.P, crt.Q} {
		if len(t) > certTermBytes {
			return fmt.Errorf("ledger: term %q is %d bytes (limit %d): %w",
				parser.Excerpt(t), len(t), certTermBytes, ErrTermTooLarge)
		}
	}
	return nil
}

// CertKey is the pair key of the pair crt proves: QueryKey of its relation,
// mode and parsed terms. A term longer than four times MaxTermBytes is
// refused before it is parsed.
func CertKey(crt *cert.Certificate) (string, error) {
	if err := checkTermBytes(crt); err != nil {
		return "", err
	}
	p, err := parser.Parse(crt.P)
	if err != nil {
		return "", fmt.Errorf("ledger: unparseable term %q: %w", parser.Excerpt(crt.P), err)
	}
	q, err := parser.Parse(crt.Q)
	if err != nil {
		return "", fmt.Errorf("ledger: unparseable term %q: %w", parser.Excerpt(crt.Q), err)
	}
	return QueryKey(crt.Relation, crt.Weak, p, q), nil
}

// NewRecord assembles an unsequenced record from a certified verdict. The
// terms and the pair key are derived from the certificate itself, so the
// record cannot name a different pair than its evidence proves.
func NewRecord(rel string, weak bool, maxPairs, maxClosure, maxSubs int,
	related bool, pairs int, reason string, crt *cert.Certificate) (Record, error) {
	if err := refuseRecord(rel, weak, related, crt); err != nil {
		return Record{}, err
	}
	key, err := CertKey(crt)
	if err != nil {
		return Record{}, err
	}
	return NewKeyedRecord(key, rel, weak, maxPairs, maxClosure, maxSubs, related, pairs, reason, crt)
}

// NewKeyedRecord is NewRecord for a caller that holds the pair key of the
// verdict already: QueryKey of the pair it decided. It makes every refusal
// of NewRecord that needs no parse, and parses no term, so nothing here
// checks key against the certificate: the record's first read does
// (VerifyRecord), and quarantines a record whose certificate terms derive
// another key.
func NewKeyedRecord(key string, rel string, weak bool, maxPairs, maxClosure, maxSubs int,
	related bool, pairs int, reason string, crt *cert.Certificate) (Record, error) {
	if err := refuseRecord(rel, weak, related, crt); err != nil {
		return Record{}, err
	}
	raw, err := json.Marshal(crt)
	if err != nil {
		return Record{}, fmt.Errorf("ledger: marshal certificate: %w", err)
	}
	return Record{
		Key: key, KeyHash: KeyHash(key),
		Rel: rel, Weak: weak, P: crt.P, Q: crt.Q,
		Related: related, Pairs: pairs, Reason: reason,
		MaxPairs: maxPairs, MaxClosure: maxClosure, MaxSubs: maxSubs,
		Cert: raw,
	}, nil
}

// refuseRecord is the error of a verdict that no record may carry: one
// without a certificate, one its certificate disagrees with, or one whose
// certificate names a term past the bound.
func refuseRecord(rel string, weak, related bool, crt *cert.Certificate) error {
	if crt == nil {
		return fmt.Errorf("ledger: refusing to record an uncertified verdict")
	}
	if crt.Relation != rel || crt.Weak != weak || crt.Related != related {
		return fmt.Errorf("ledger: certificate (%s weak=%t related=%t) disagrees with verdict (%s weak=%t related=%t)",
			crt.Relation, crt.Weak, crt.Related, rel, weak, related)
	}
	return checkTermBytes(crt)
}

// Seal is the payload of one sealed Merkle batch: the records it covers, the
// tree root over their payload hashes, and the hash chain linking it to every
// seal before it. Chain = SHA-256(PrevBytes || RootBytes), from a fixed
// genesis value, so rewriting any sealed batch breaks every later link.
type Seal struct {
	Batch    int    `json:"batch"`
	FirstSeq uint64 `json:"first_seq"`
	Count    int    `json:"count"`
	Root     string `json:"root"`
	Prev     string `json:"prev"`
	Chain    string `json:"chain"`
	UnixNano int64  `json:"t,omitempty"`
}

// On-disk framing: every entry (verdict or seal) is
//
//	[4B magic][1B type][4B length][payload][4B CRC-32C]
//
// with the checksum covering type+length+payload. Length-prefix framing makes
// a payload bit-flip skippable (the next entry still aligns); a corrupted
// header is indistinguishable from a torn write and ends the readable region.
const (
	entryMagic   = 0xB1D6E901
	entryVerdict = byte(1)
	entrySeal    = byte(2)
	headerBytes  = 4 + 1 + 4
	trailerBytes = 4

	// maxEntryBytes bounds a single payload; anything larger is treated as a
	// corrupted header rather than an allocation request.
	maxEntryBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeEntry frames v's JSON encoding, the bytes json.Marshal writes, as
// one entry of type typ, reusing buf's storage for the frame.
func encodeEntry(buf []byte, typ byte, v any) ([]byte, error) {
	w := bytes.NewBuffer(append(buf[:0], make([]byte, headerBytes)...))
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return buf, err
	}
	frame := w.Bytes()
	frame = frame[:len(frame)-1] // Encode ends the value with a newline
	binary.LittleEndian.PutUint32(frame[0:], entryMagic)
	frame[4] = typ
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(frame)-headerBytes))
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[4:], crcTable)), nil
}

// decodeEntry reads the entry at buf[off:]. It returns the entry type, the
// payload, the offset just past the entry, and ok=false when the bytes at off
// do not frame a whole entry (torn tail or corrupted header). A framed entry
// whose checksum fails returns ok=true with crcOK=false: the caller can skip
// it and keep reading.
func decodeEntry(buf []byte, off int) (typ byte, payload []byte, next int, ok, crcOK bool) {
	if off+headerBytes > len(buf) {
		return 0, nil, 0, false, false
	}
	if binary.LittleEndian.Uint32(buf[off:]) != entryMagic {
		return 0, nil, 0, false, false
	}
	typ = buf[off+4]
	n := int(binary.LittleEndian.Uint32(buf[off+5:]))
	if n > maxEntryBytes || off+headerBytes+n+trailerBytes > len(buf) {
		return 0, nil, 0, false, false
	}
	payload = buf[off+headerBytes : off+headerBytes+n]
	want := binary.LittleEndian.Uint32(buf[off+headerBytes+n:])
	got := crc32.Checksum(buf[off+4:off+headerBytes+n], crcTable)
	return typ, payload, off + headerBytes + n + trailerBytes, true, want == got
}
