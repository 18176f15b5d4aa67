package ledger

import (
	"encoding/json"
	"math"
	"strings"
)

// indexFields are the parts of a record's payload that its index entry
// keeps. json.Unmarshal of the payload into indexFields is the reference
// reading: readIndex returns exactly what it returns.
type indexFields struct {
	Seq        uint64 `json:"seq"`
	KeyHash    string `json:"key_hash"`
	MaxPairs   int    `json:"max_pairs"`
	MaxClosure int    `json:"max_closure"`
	MaxSubs    int    `json:"max_subs"`
}

// readIndex reads the index fields of a record payload. The index pass
// (scanIndex) checks the whole payload and reads the five fields in one
// walk, without decoding the rest; a payload it declines is decoded by
// json.Unmarshal, so every value and every error is the reference's.
func readIndex(payload []byte) (indexFields, error) {
	if f, ok := scanIndex(payload); ok {
		return f, nil
	}
	var f indexFields
	err := json.Unmarshal(payload, &f)
	return f, err
}

// maxIndexDepth bounds the nesting the index pass follows. A record nests
// a few levels deep; a deeper payload is left to json.Unmarshal, which
// allows 10,000 levels.
const maxIndexDepth = 64

// strPlain marks the bytes that continue a JSON string with nothing to
// check: every byte but '"', '\\' and the control bytes, as encoding/json
// reads it (which accepts any byte from 0x80 up, valid UTF-8 or not).
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// The index fields, numbered for indexNames, and fieldNone for any other
// key.
const (
	fieldSeq = iota
	fieldKeyHash
	fieldMaxPairs
	fieldMaxClosure
	fieldMaxSubs
	fieldNone
)

// indexNames are the JSON names of the index fields.
var indexNames = [...]string{
	fieldSeq:        "seq",
	fieldKeyHash:    "key_hash",
	fieldMaxPairs:   "max_pairs",
	fieldMaxClosure: "max_closure",
	fieldMaxSubs:    "max_subs",
}

// scanIndex is the index pass. It reports ok only when the payload is one
// JSON object, well formed to its last byte, in which json.Unmarshal would
// read every index field exactly as written here: each top-level key
// ASCII with no escape, an index name matched exactly (a key that
// case-folds onto one is declined), a number a decimal integer that fits
// its field, and key_hash a string of ASCII bytes with no escape. Duplicate keys keep
// the last value, as json.Unmarshal does. Anything else (invalid JSON,
// null, a sign, fraction, exponent or overflow, another type, nesting past
// maxIndexDepth) is declined.
func scanIndex(b []byte) (f indexFields, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return f, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return f, skipSpace(b, i+1) == len(b)
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return f, false
		}
		end := skipString(b, i)
		if end < 0 {
			return f, false
		}
		field, plain := indexField(b[i+1 : end-1])
		if !plain {
			return f, false
		}
		if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
			return f, false
		}
		i = skipSpace(b, i+1)
		switch field {
		case fieldNone:
			i = skipValue(b, i, 1)
		case fieldKeyHash:
			if i >= len(b) || b[i] != '"' {
				return f, false
			}
			end := skipString(b, i)
			if end < 0 || !plainASCII(b[i+1:end-1]) {
				return f, false
			}
			f.KeyHash, i = string(b[i+1:end-1]), end
		case fieldSeq:
			f.Seq, i = decimal(b, i, math.MaxUint64)
		default:
			var n uint64
			n, i = decimal(b, i, math.MaxInt)
			switch field {
			case fieldMaxPairs:
				f.MaxPairs = int(n)
			case fieldMaxClosure:
				f.MaxClosure = int(n)
			default:
				f.MaxSubs = int(n)
			}
		}
		if i < 0 {
			return f, false
		}
		if i = skipSpace(b, i); i >= len(b) {
			return f, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return f, skipSpace(b, i+1) == len(b)
		default:
			return f, false
		}
	}
}

// indexField names the index field of a top-level key's raw bytes.
// plain is false when json.Unmarshal might match the key to an index field
// it does not equal: the key has an escape or a byte past ASCII (such as
// ſ or the Kelvin sign, which fold onto s and k), or differs from an index
// name in case only.
func indexField(key []byte) (field int, plain bool) {
	if !plainASCII(key) {
		return fieldNone, false
	}
	for n, name := range indexNames {
		if len(key) != len(name) {
			continue
		}
		if string(key) == name {
			return n, true
		}
		if strings.EqualFold(string(key), name) {
			return fieldNone, false
		}
	}
	return fieldNone, true
}

// plainASCII reports whether s holds ASCII bytes only, and no escape.
func plainASCII(s []byte) bool {
	for _, c := range s {
		if c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// decimal reads the JSON number at b[i:] when it is a decimal integer of
// at most max: no sign, fraction or exponent. It returns the value and the
// index just past it, or -1 for any other number or value.
func decimal(b []byte, i int, max uint64) (uint64, int) {
	var n uint64
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		d := uint64(b[j] - '0')
		if n > (max-d)/10 {
			return 0, -1
		}
		n = n*10 + d
	}
	switch {
	case j == i, b[i] == '0' && j > i+1:
		return 0, -1
	case j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E'):
		return 0, -1
	}
	return n, j
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value at b[i:], or -1
// when the bytes there are not one, or nest past maxIndexDepth. depth is
// the nesting of the value's container.
func skipValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '{':
		if depth == maxIndexDepth {
			return -1
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
			return i + 1
		}
		for {
			if i >= len(b) || b[i] != '"' {
				return -1
			}
			end := skipString(b, i)
			if end < 0 {
				return -1
			}
			if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
				return -1
			}
			if i = skipValue(b, skipSpace(b, i+1), depth+1); i < 0 {
				return -1
			}
			if i = skipSpace(b, i); i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case '}':
				return i + 1
			default:
				return -1
			}
		}
	case '[':
		if depth == maxIndexDepth {
			return -1
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
			return i + 1
		}
		for {
			if i = skipValue(b, i, depth+1); i < 0 {
				return -1
			}
			if i = skipSpace(b, i); i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case ']':
				return i + 1
			default:
				return -1
			}
		}
	case '"':
		return skipString(b, i)
	case 't':
		return skipLiteral(b, i, "true")
	case 'f':
		return skipLiteral(b, i, "false")
	case 'n':
		return skipLiteral(b, i, "null")
	default:
		return skipNumber(b, i)
	}
}

// skipString returns the index just past the JSON string whose opening
// quote is b[i], or -1 when it is not closed or holds a control byte or a
// bad escape.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		if i += plainRun(b[i:]); i == len(b) {
			return -1
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			i++
			if i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return -1
				}
				for _, c := range b[i+1 : i+5] {
					if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		default: // a control byte
			return -1
		}
	}
	return -1
}

// plainRun returns the length of the run of bytes at the start of s that
// strPlain passes.
func plainRun(s []byte) int {
	for n, c := range s {
		if !strPlain[c] {
			return n
		}
	}
	return len(s)
}

// skipLiteral returns the index just past lit at b[i:], or -1.
func skipLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipNumber returns the index just past the JSON number at b[i:], or -1:
// an optional minus, an integer part with no leading zero, then an
// optional fraction and exponent, each with at least one digit.
func skipNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// skipDigits returns the index of the first byte at or after i that is not
// a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
