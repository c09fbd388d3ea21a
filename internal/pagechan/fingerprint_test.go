package pagechan

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"migrrdma/internal/mem"
)

// noisyPage returns a page of seeded pseudo-random bytes: every word
// distinct from its neighbours, so a swap or a flip is a real change.
func noisyPage() []byte {
	b := make([]byte, mem.PageSize)
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b
}

// TestFingerprintSeparatesNearbyPages pins what the dedup table relies
// on: equal pages fingerprint equally, and the small edits an
// application makes to a page it rewrites — one bit, the top bit of two
// words, two words swapped, one byte of a zero page — all change the
// fingerprint.
func TestFingerprintSeparatesNearbyPages(t *testing.T) {
	orig := noisyPage()
	base := hashPage(orig)
	if hashPage(append([]byte(nil), orig...)) != base {
		t.Fatal("equal pages gave different fingerprints")
	}
	b := append([]byte(nil), orig...)

	// Every single-bit flip: distinct from the page and from each other.
	flips := map[uint64]int{base: -1}
	for bit := 0; bit < 8*len(b); bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		h := hashPage(b)
		b[bit/8] ^= 1 << (bit % 8)
		if prev, ok := flips[h]; ok {
			t.Fatalf("flipping bit %d fingerprints like flipping bit %d (-1: no flip)", bit, prev)
		}
		flips[h] = bit
	}

	// Bit 63 of two different words, every pair: distinct from the page
	// and from each other.
	pairs := map[uint64][2]int{base: {-1, -1}}
	for i := 0; i < len(b)/8; i++ {
		b[8*i+7] ^= 0x80
		for j := i + 1; j < len(b)/8; j++ {
			b[8*j+7] ^= 0x80
			h := hashPage(b)
			b[8*j+7] ^= 0x80
			if prev, ok := pairs[h]; ok {
				t.Fatalf("bit 63 of words %d and %d fingerprints like words %v (-1: no flip)", i, j, prev)
			}
			pairs[h] = [2]int{i, j}
		}
		b[8*i+7] ^= 0x80
	}

	// Two words swapped, every adjacent pair and the first with each.
	swap := func(i, j int) {
		wi, wj := binary.LittleEndian.Uint64(b[8*i:]), binary.LittleEndian.Uint64(b[8*j:])
		binary.LittleEndian.PutUint64(b[8*i:], wj)
		binary.LittleEndian.PutUint64(b[8*j:], wi)
	}
	for i := 1; i < len(b)/8; i++ {
		for _, pair := range [][2]int{{i - 1, i}, {0, i}} {
			swap(pair[0], pair[1])
			if hashPage(b) == base {
				t.Fatalf("swapping words %d and %d left the fingerprint unchanged", pair[0], pair[1])
			}
			swap(pair[0], pair[1])
		}
	}

	// A zero page against one non-zero byte at each offset.
	zero := make([]byte, mem.PageSize)
	hz := hashPage(zero)
	for off := range zero {
		for _, v := range []byte{1, 0x80, 0xff} {
			zero[off] = v
			if hashPage(zero) == hz {
				t.Fatalf("byte %#x at offset %d fingerprints like the zero page", v, off)
			}
		}
		zero[off] = 0
	}
}

// TestFingerprintAllocatesNothing: the fingerprint runs once per dumped
// page on every pipelined round.
func TestFingerprintAllocatesNothing(t *testing.T) {
	b := noisyPage()
	if n := testing.AllocsPerRun(100, func() { _ = hashPage(b) }); n != 0 {
		t.Fatalf("hashPage allocates %v times a page", n)
	}
}

var fingerprintSink uint64

// BenchmarkPageFingerprint is the per-page cost of the dedup
// fingerprint.
func BenchmarkPageFingerprint(b *testing.B) {
	page := noisyPage()
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		fingerprintSink += hashPage(page)
	}
}
