package ledger

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpi/internal/cert"
)

// indexPassCases are payloads on either side of the index pass's rules,
// each with whether the pass reads it itself (true) or leaves it to
// json.Unmarshal (false).
var indexPassCases = []struct {
	payload string
	scanned bool
}{
	{`{"seq":1,"key_hash":"ab","max_pairs":2,"max_closure":3,"max_subs":4}`, true},
	{` { "seq" : 7 , "cert" : { "a" : [ 1 , -2.5e+3 , true , false , null , "é\n" ] } } `, true},
	{`{}`, true},
	{`{"seq":1,"key_hash":"ab","seq":2,"key_hash":"cd"}`, true}, // the last one wins
	{`{"seq":18446744073709551615,"max_pairs":9223372036854775807}`, true},
	{`{"seq":0,"key_hash":"\u007f"}`, false}, // an escape in key_hash
	{"{\"seq\":0,\"key_hash\":\"\x7f\"}", true},
	{`{"key":"\u0001","p":"·Â"}`, true},
	{`{"SEQ":3}`, false},
	{`{"Key_Hash":"ab"}`, false},
	{`{"s\u0065q":3}`, false},
	{"{\"ſeq\":3}", false},                 // ſ folds onto s
	{"{\"\u212aey_hash\":\"ab\"}", false},  // the Kelvin sign folds onto k
	{"{\"p\":\"ſ\",\"q\":\"\xff\"}", true}, // non-ASCII in a value is only checked
	{`{"seq":null}`, false},
	{`{"seq":"1"}`, false},
	{`{"key_hash":1}`, false},
	{`{"key_hash":0"}`, false},
	{`{"seq":1e3}`, false},
	{`{"seq":1.0}`, false},
	{`{"seq":-1}`, false},
	{`{"max_pairs":-1}`, false},
	{`{"seq":+1}`, false},
	{`{"seq":01}`, false},
	{`{"seq":18446744073709551616}`, false},
	{`{"max_subs":9223372036854775808}`, false},
	{"{\"p\":\"a\x01b\"}", false},
	{"{\"key_hash\":\"\xc3\xa9\"}", false},
	{"{\"key_hash\":\"\xff\"}", false},
	{`{"seq":1} x`, false},
	{`{"seq":1}{}`, false},
	{"{\"seq\":1} \n\t\r", true},
	{`{"cert":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, false},
	{`{"cert":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`, false},
	{`{"cert":` + strings.Repeat(`{"a":`, 62) + `0` + strings.Repeat("}", 62) + `}`, true},
	{`{"p":"\x"}`, false},
	{`{"p":"\u12"}`, false},
	{`{"p":tru}`, false},
	{`{"p":-}`, false},
	{`{"p":1.}`, false},
	{`{"p":1e}`, false},
	{`{"p":[1,]}`, false},
	{`{"p":1,}`, false},
	{`{"seq":1`, false},
	{`[]`, false},
	{`null`, false},
	{``, false},
	{`not json`, false},
}

// fixturePayloads returns the verdict payloads of the ledger bpid wrote at
// commit 49dd064.
func fixturePayloads(tb testing.TB) [][]byte {
	tb.Helper()
	seg, err := os.ReadFile(filepath.Join("testdata", "keys-49dd064", "seg-000001.log"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for off := 0; off < len(seg); {
		typ, payload, next, ok, crcOK := decodeEntry(seg, off)
		if !ok || !crcOK {
			tb.Fatalf("fixture entry at offset %d does not frame", off)
		}
		if typ == entryVerdict {
			out = append(out, payload)
		}
		off = next
	}
	return out
}

// checkReadIndex fails t unless readIndex returns what json.Unmarshal of
// payload into indexFields returns: the same fields, and the same error or
// none.
func checkReadIndex(t *testing.T, payload []byte) {
	t.Helper()
	got, gotErr := readIndex(payload)
	var want indexFields
	wantErr := json.Unmarshal(payload, &want)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("readIndex(%q) error = %v, json.Unmarshal = %v", payload, gotErr, wantErr)
	}
	if wantErr == nil && got != want {
		t.Fatalf("readIndex(%q) = %+v, json.Unmarshal = %+v", payload, got, want)
	}
}

// TestIndexPassRules pins which payloads the index pass reads itself, and
// that readIndex agrees with json.Unmarshal on each of them.
func TestIndexPassRules(t *testing.T) {
	for _, c := range indexPassCases {
		if _, ok := scanIndex([]byte(c.payload)); ok != c.scanned {
			t.Errorf("scanIndex(%.80q) ok = %t, want %t", c.payload, ok, c.scanned)
		}
		checkReadIndex(t, []byte(c.payload))
	}
}

// TestIndexPassReadsRecords: the index pass reads every record itself,
// those of the 49dd064 fixture and those this commit writes, so Open runs
// no json.Unmarshal on a well-formed record.
func TestIndexPassReadsRecords(t *testing.T) {
	payloads := fixturePayloads(t)
	for _, r := range allRecords(t) {
		r.Seq, r.UnixNano = 1<<40, 1<<62
		p, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	for _, p := range payloads {
		if _, ok := scanIndex(p); !ok {
			t.Errorf("index pass declined a well-formed record: %.200q", p)
		}
		checkReadIndex(t, p)
	}
}

// FuzzIndexFields holds the index pass and its fallback to the reference:
// on every input, readIndex returns exactly what json.Unmarshal into
// indexFields returns.
func FuzzIndexFields(f *testing.F) {
	for _, p := range fixturePayloads(f) {
		f.Add(p)
	}
	for _, c := range indexPassCases {
		f.Add([]byte(c.payload))
	}
	f.Fuzz(checkReadIndex)
}

// TestUndecodableRecordQuarantinedAtOpen: a verdict frame whose checksum
// holds but whose payload is not JSON is quarantined at Open, with the
// reason json.Unmarshal gives, and the records around it still read.
func TestUndecodableRecordQuarantinedAtOpen(t *testing.T) {
	recs := allRecords(t)[:2]
	dir := t.TempDir()
	writeLedger(t, dir, Config{MaxWait: -1}, recs)

	bad := []byte(`{"seq":3,"key_hash":"` + recs[0].KeyHash + `",`)
	var want indexFields
	wantErr := json.Unmarshal(bad, &want)
	if wantErr == nil {
		t.Fatal("the bad payload decodes")
	}
	frame := binary.LittleEndian.AppendUint32(nil, entryMagic)
	frame = append(frame, entryVerdict)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(bad)))
	frame = append(frame, bad...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[4:], crcTable))
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := Open(dir, noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Records != len(recs) || st.Rejected != 1 || st.Pending != 1 {
		t.Fatalf("stats: %+v", st)
	}
	rej := l.Rejections()
	if len(rej) != 1 || rej[0] != "seq 0: undecodable record: "+wantErr.Error() {
		t.Fatalf("rejections %q, want the undecodable record with %q", rej, wantErr)
	}
	if n := l.Replay(func(*Record, *cert.Certificate) {}); n != len(recs) {
		t.Fatalf("replayed %d records, want %d", n, len(recs))
	}
}
