package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"testing"
)

func synthLeaves(n int) [][32]byte {
	out := make([][32]byte, n)
	for i := range out {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		out[i] = sha256.Sum256(b[:])
	}
	return out
}

// TestAuditPathFoldsToRoot checks every leaf of every tree size up to 33
// (covering powers of two, one-off-balanced, and single-leaf trees).
func TestAuditPathFoldsToRoot(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := synthLeaves(n)
		root := merkleRoot(leaves)
		for i := 0; i < n; i++ {
			path := auditPath(leaves, i)
			got, err := rootFromPath(leaves[i], i, n, path)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if got != root {
				t.Fatalf("n=%d i=%d: folded root mismatch", n, i)
			}
		}
	}
}

// TestAuditPathRejectsTampering flips one bit anywhere in the proof inputs
// and demands a different root (or an error).
func TestAuditPathRejectsTampering(t *testing.T) {
	leaves := synthLeaves(9)
	root := merkleRoot(leaves)
	path := auditPath(leaves, 4)

	// Wrong leaf.
	bad := leaves[4]
	bad[0] ^= 1
	if got, err := rootFromPath(bad, 4, 9, path); err == nil && got == root {
		t.Fatal("flipped leaf still folds to the sealed root")
	}
	// Wrong index.
	if got, err := rootFromPath(leaves[4], 5, 9, path); err == nil && got == root {
		t.Fatal("wrong index still folds to the sealed root")
	}
	// Flipped path hash.
	mut := append([][32]byte(nil), path...)
	mut[1][3] ^= 0x80
	if got, err := rootFromPath(leaves[4], 4, 9, mut); err == nil && got == root {
		t.Fatal("flipped audit hash still folds to the sealed root")
	}
	// Truncated and over-long paths must error, not silently succeed.
	if _, err := rootFromPath(leaves[4], 4, 9, path[:len(path)-1]); err == nil {
		t.Fatal("truncated audit path accepted")
	}
	if _, err := rootFromPath(leaves[4], 4, 9, append(mut, [32]byte{})); err == nil {
		t.Fatal("over-long audit path accepted")
	}
	if _, err := rootFromPath(leaves[4], 42, 9, path); err == nil {
		t.Fatal("out-of-range leaf index accepted")
	}
}

// TestSplitPoint pins the RFC 6962 split rule: largest power of two < n.
func TestSplitPoint(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 4}, {8, 4}, {9, 8}, {16, 8}, {17, 16}, {1000, 512},
	} {
		if got := splitPoint(tc.n); got != tc.k {
			t.Errorf("splitPoint(%d) = %d, want %d", tc.n, got, tc.k)
		}
	}
}

// TestChainHashLinks pins the chain construction so on-disk seals written by
// one version stay checkable by the next.
func TestChainHashLinks(t *testing.T) {
	g := genesisChain()
	if g == ([32]byte{}) {
		t.Fatal("genesis chain is zero")
	}
	r1 := merkleRoot(synthLeaves(3))
	r2 := merkleRoot(synthLeaves(5))
	c1 := chainHash(g, r1)
	c2 := chainHash(c1, r2)
	if c1 == c2 || c1 == g {
		t.Fatal("chain values collide")
	}
	// Order matters: swapping the batches must change the head.
	if chainHash(chainHash(g, r2), r1) == c2 {
		t.Fatal("chain head insensitive to batch order")
	}
}

// TestEntryFraming round-trips the binary framing and pins the corruption
// taxonomy: torn tail → not ok; payload bit-flip → ok but crc fails; the
// next entry after a flipped one still decodes (skip-with-resync).
func TestEntryFraming(t *testing.T) {
	a, err := encodeEntry(nil, entryVerdict, json.RawMessage(`{"seq":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeEntry(nil, entrySeal, json.RawMessage(`{"batch":0}`))
	if err != nil {
		t.Fatal(err)
	}
	buf := append(append([]byte(nil), a...), b...)

	typ, payload, next, ok, crcOK := decodeEntry(buf, 0)
	if !ok || !crcOK || typ != entryVerdict || string(payload) != `{"seq":1}` {
		t.Fatalf("first entry: typ=%d payload=%q ok=%t crc=%t", typ, payload, ok, crcOK)
	}
	typ, payload, next2, ok, crcOK := decodeEntry(buf, next)
	if !ok || !crcOK || typ != entrySeal || string(payload) != `{"batch":0}` || next2 != len(buf) {
		t.Fatalf("second entry: typ=%d payload=%q ok=%t crc=%t next=%d", typ, payload, ok, crcOK, next2)
	}

	// Torn tail: any strict prefix of a lone entry fails to frame.
	for cut := 1; cut < len(a); cut++ {
		if _, _, _, ok, _ := decodeEntry(a[:cut], 0); ok {
			t.Fatalf("torn prefix of %d bytes decoded as a whole entry", cut)
		}
	}

	// Payload bit-flip: frames, fails the checksum, and the next entry is
	// still reachable at the same offset.
	flip := append([]byte(nil), buf...)
	flip[headerBytes] ^= 0x40
	_, _, next3, ok, crcOK := decodeEntry(flip, 0)
	if !ok || crcOK {
		t.Fatalf("bit-flipped entry: ok=%t crc=%t, want framed but checksum-failed", ok, crcOK)
	}
	if _, _, _, ok, crcOK := decodeEntry(flip, next3); !ok || !crcOK {
		t.Fatal("entry after a bit-flipped one did not decode cleanly")
	}

	// Corrupted magic reads as unframed bytes.
	flip[0] ^= 0xFF
	if _, _, _, ok, _ := decodeEntry(flip, 0); ok {
		t.Fatal("corrupted magic still framed")
	}
	// An absurd length is a corrupted header, not an allocation request.
	huge := append([]byte(nil), a...)
	binary.LittleEndian.PutUint32(huge[5:], uint32(maxEntryBytes+1))
	if _, _, _, ok, _ := decodeEntry(huge, 0); ok {
		t.Fatal("oversized length field still framed")
	}
}
