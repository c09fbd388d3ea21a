package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"migrrdma/internal/fifo"
)

func TestMapReadWrite(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x10000, 8192, "buf"); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello across a page boundary")
	if err := as.Write(0x10000+PageSize-10, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(0x10000+PageSize-10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestUnmappedFaults(t *testing.T) {
	as := NewAddressSpace()
	err := as.Write(0x5000, []byte{1})
	if _, ok := err.(*FaultError); !ok {
		t.Fatalf("err = %v, want FaultError", err)
	}
	as.Map(0x5000, PageSize, "one")
	// Access spilling past the end of the mapping must fault.
	if err := as.Write(0x5000+PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("cross-boundary write into unmapped page succeeded")
	}
}

func TestMapOverlapRejected(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, 4*PageSize, "a")
	if _, err := as.Map(0x10000+2*PageSize, PageSize, "b"); err == nil {
		t.Fatal("overlapping map succeeded")
	}
	if _, err := as.Map(0x10000+4*PageSize, PageSize, "b"); err != nil {
		t.Fatalf("adjacent map failed: %v", err)
	}
}

func TestMapAnywhereSkipsGaps(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x2000, PageSize, "a")
	as.Map(0x4000, PageSize, "b")
	v, err := as.MapAnywhere(0x1000, 2*PageSize, "c")
	if err != nil {
		t.Fatal(err)
	}
	if v.Start != 0x5000 {
		t.Fatalf("placed at %#x, want 0x5000 (first gap of 2 pages)", uint64(v.Start))
	}
}

func TestUnmapDiscardsPages(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x8000, PageSize, "a")
	as.Write(0x8000, []byte{42})
	as.Unmap(0x8000)
	as.Map(0x8000, PageSize, "a2")
	var b [1]byte
	as.Read(0x8000, b[:])
	if b[0] != 0 {
		t.Fatal("page content survived unmap")
	}
}

func TestRemapKeepsContents(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x100000, 3*PageSize, "tmp")
	as.Write(0x100000+123, []byte("payload"))
	if err := as.Remap(0x100000, 0x700000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := as.Read(0x700000+123, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("after remap read %q", got)
	}
	if as.Mapped(0x100000, 1) {
		t.Fatal("old range still mapped after remap")
	}
}

func TestRemapRejectsCollision(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x100000, PageSize, "src")
	as.Map(0x200000, PageSize, "obstacle")
	if err := as.Remap(0x100000, 0x200000); err == nil {
		t.Fatal("remap onto an existing mapping succeeded")
	}
}

func TestDirtyTracking(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, 4*PageSize, "buf")
	as.Write(0x10000, []byte{1})
	as.Write(0x10000+2*PageSize, []byte{1})
	d := as.DirtyPages()
	if len(d) != 2 || d[0] != 0x10000 || d[1] != 0x10000+2*PageSize {
		t.Fatalf("dirty = %#v", d)
	}
	as.ClearDirty()
	if len(as.DirtyPages()) != 0 {
		t.Fatal("dirty set survived ClearDirty")
	}
	// WriteClean must not re-dirty.
	as.WriteClean(0x10000, []byte{2})
	if len(as.DirtyPages()) != 0 {
		t.Fatal("WriteClean marked a page dirty")
	}
	var b [1]byte
	as.Read(0x10000, b[:])
	if b[0] != 2 {
		t.Fatal("WriteClean did not write")
	}
}

func TestU64RoundTrip(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, PageSize, "buf")
	if err := as.WriteU64(0x10008, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(0x10008)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafe {
		t.Fatalf("got %#x", v)
	}
}

func TestFindVMA(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, 2*PageSize, "a")
	as.Map(0x40000, PageSize, "b")
	if v := as.FindVMA(0x10000 + PageSize); v == nil || v.Name != "a" {
		t.Fatalf("FindVMA inside a = %v", v)
	}
	if v := as.FindVMA(0x30000); v != nil {
		t.Fatalf("FindVMA in gap = %v", v)
	}
	if v := as.FindVMA(0x40000 + PageSize - 1); v == nil || v.Name != "b" {
		t.Fatalf("FindVMA at end of b = %v", v)
	}
}

// TestPropWriteReadRoundTrip checks that any write inside a mapping is
// read back identically, at arbitrary offsets and lengths.
func TestPropWriteReadRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	const base, size = Addr(0x100000), uint64(64 * PageSize)
	as.Map(base, size, "arena")
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := base + Addr(uint64(off)%(size-uint64(len(data))))
		if err := as.Write(a, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := as.Read(a, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropDirtyCoversWrites checks that after ClearDirty, every written
// byte lies in some dirty page.
func TestPropDirtyCoversWrites(t *testing.T) {
	f := func(offs []uint16) bool {
		as := NewAddressSpace()
		const base, size = Addr(0x100000), uint64(16 * PageSize)
		as.Map(base, size, "arena")
		as.ClearDirty()
		want := map[Addr]bool{}
		for _, o := range offs {
			a := base + Addr(uint64(o)%size)
			as.Write(a, []byte{1})
			want[PageFloor(a)] = true
		}
		got := map[Addr]bool{}
		for _, a := range as.DirtyPages() {
			got[a] = true
		}
		if len(got) != len(want) {
			return false
		}
		for a := range want {
			if !got[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropRemapPreservesBytes checks mremap keeps every byte.
func TestPropRemapPreservesBytes(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{7}
		}
		if len(data) > 3*PageSize {
			data = data[:3*PageSize]
		}
		as := NewAddressSpace()
		as.Map(0x10000, 4*PageSize, "src")
		as.Write(0x10000, data)
		if err := as.Remap(0x10000, 0x900000); err != nil {
			return false
		}
		got := make([]byte, len(data))
		as.Read(0x900000, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- Page cache --------------------------------------------------------------

// TestMappedAccessAllocatesNothing pins the DMA hot path: once a page
// exists, reading and writing it (cache hit or miss) allocates nothing.
func TestMappedAccessAllocatesNothing(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x10000, 64*PageSize, "buf"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*PageSize)
	if err := as.Write(0x10000, make([]byte, 64*PageSize)); err != nil {
		t.Fatal(err)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		// Unaligned, page-crossing, and walking the VMA so that cache
		// slots are both hit and replaced.
		a := Addr(0x10000 + (i%60)*PageSize + 100)
		i++
		if err := as.Write(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := as.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Read+Write on mapped pages: %v allocs per run, want 0", n)
	}

	// A write of the bytes a borrowing page already holds copies nothing.
	ramp := make([]byte, PageSize)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	f := FrameOf(ramp)
	if err := as.Borrow(0x10000, f); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := as.Write(0x10000+100, f.Bytes()[100:300]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a byte-identical write to a borrowing page: %v allocs per run, want 0", n)
	}
	if g, ok := as.BorrowedFrame(0x10000); !ok || g != f {
		t.Fatal("a byte-identical write gave the borrowing page a copy")
	}
}

func TestZeroPageReadClearsBuffer(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, 4*PageSize, "buf")
	as.Write(0x10000+2*PageSize, []byte{9}) // one populated page among zero pages
	buf := bytes.Repeat([]byte{0xEE}, 3*PageSize)
	for pass := 0; pass < 2; pass++ { // second pass hits the cache
		if err := as.Read(0x10000+100, buf); err != nil {
			t.Fatal(err)
		}
		for i, c := range buf {
			want := byte(0)
			if i == 2*PageSize-100 {
				want = 9
			}
			if c != want {
				t.Fatalf("pass %d: byte %d = %#x, want %#x", pass, i, c, want)
			}
		}
		for i := range buf {
			buf[i] = 0xEE
		}
	}
}

func TestCacheDroppedOnUnmap(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, 2*PageSize, "a")
	as.Write(0x10000, []byte("cached"))
	var b [6]byte
	as.Read(0x10000, b[:]) // page now cached
	if err := as.Unmap(0x10000); err != nil {
		t.Fatal(err)
	}
	var fe *FaultError
	if err := as.Read(0x10000, b[:]); !errors.As(err, &fe) {
		t.Fatalf("read after unmap: %v, want a fault", err)
	}
	if err := as.Write(0x10000, b[:]); !errors.As(err, &fe) {
		t.Fatalf("write after unmap: %v, want a fault", err)
	}
	// Mapping the range again starts from zero pages, not the old content.
	as.Map(0x10000, 2*PageSize, "a2")
	as.Read(0x10000, b[:])
	if b != [6]byte{} {
		t.Fatalf("remapped range shows stale content %q", b)
	}
}

func TestCacheFollowsRemap(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, 2*PageSize, "a")
	as.ClearDirty()
	as.Write(0x10000+PageSize, []byte("moved"))
	var b [5]byte
	as.Read(0x10000+PageSize, b[:]) // cached at the old address
	if err := as.Remap(0x10000, 0x50000); err != nil {
		t.Fatal(err)
	}
	var fe *FaultError
	if err := as.Read(0x10000+PageSize, b[:]); !errors.As(err, &fe) {
		t.Fatalf("read at the old address after remap: %v, want a fault", err)
	}
	if err := as.Read(0x50000+PageSize, b[:]); err != nil || string(b[:]) != "moved" {
		t.Fatalf("read at the new address: %q, %v", b, err)
	}
	if d := as.DirtyPages(); len(d) != 1 || d[0] != 0x50000+PageSize {
		t.Fatalf("dirty pages after remap: %#x, want [0x51000]", d)
	}
	// A write through the cache at the new address lands in the moved page.
	as.Write(0x50000+PageSize, []byte("M"))
	pg := make([]byte, PageSize)
	as.ReadPageInto(0x50000+PageSize, pg)
	if string(pg[:5]) != "Moved" {
		t.Fatalf("page after cached write: %q", pg[:5])
	}
	as.ReadPageInto(0x50000, pg) // the page the mapping moved away from
	if !AllZero(pg) {
		t.Fatalf("a page without content read as %q", pg[:5])
	}
}

func TestAdjacentMappingResolves(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x10000, PageSize, "a")
	as.Write(0x10000, []byte{1})
	// The neighbour page faults while unmapped — and that must not be
	// remembered once it is mapped.
	var b [1]byte
	var fe *FaultError
	if err := as.Read(0x10000+PageSize, b[:]); !errors.As(err, &fe) {
		t.Fatalf("read of unmapped neighbour: %v, want a fault", err)
	}
	as.Map(0x10000+PageSize, PageSize, "b")
	// Same cache slot as page "a" one table-length further on.
	far := Addr(0x10000 + pageCacheSlots*PageSize)
	as.Map(far, PageSize, "c")
	as.Write(far, []byte{3})
	span := make([]byte, 2*PageSize)
	if err := as.Read(0x10000, span); err != nil || span[0] != 1 || span[PageSize] != 0 {
		t.Fatalf("read across the two adjacent VMAs: %v, %d %d", err, span[0], span[PageSize])
	}
	as.Read(far, b[:])
	if b[0] != 3 {
		t.Fatalf("colliding slot returned %d, want 3", b[0])
	}
	as.Read(0x10000, b[:])
	if b[0] != 1 {
		t.Fatalf("after the collision page a reads %d, want 1", b[0])
	}
}

// TestMapAllocations: the n-th Map places its VMA by binary search, with
// no sort of the whole list, and takes it from the address space's slab:
// the slabs and the list grow amortised, so a Map allocates nothing on
// average.
func TestMapAllocations(t *testing.T) {
	as := NewAddressSpace()
	next := Addr(0x100000)
	mapOne := func() {
		if _, err := as.Map(next, PageSize, "ring"); err != nil {
			t.Fatal(err)
		}
		next += 2 * PageSize
	}
	for i := 0; i < 100; i++ {
		mapOne()
	}
	if n := testing.AllocsPerRun(1000, mapOne); n > 0 {
		t.Fatalf("the n-th Map allocates %.0f times, want 0", n)
	}
}

// TestVMASlabKeepsIdentities: VMAs come from slabs of up to
// fifo.SlabMax, and none is handed out twice. Across more VMAs than
// three slabs hold, with a third unmapped (and their ranges mapped
// again) and a third remapped, every pointer Map returned still
// describes its own range: a live VMA is what FindVMA and VMAs give for
// that range, an unmapped one reads as it did and is no live VMA.
func TestVMASlabKeepsIdentities(t *testing.T) {
	as := NewAddressSpace()
	const n = 3*fifo.SlabMax + 5
	type span struct {
		start Addr
		len   uint64
	}
	vmas := make([]*VMA, n)
	want := make([]span, n)
	for i := range vmas {
		v, err := as.Map(Addr(0x100000+i*4*PageSize), uint64(1+i%3)*PageSize, fmt.Sprint("v", i))
		if err != nil {
			t.Fatal(err)
		}
		vmas[i], want[i] = v, span{v.Start, v.Len}
	}
	live := map[*VMA]bool{}
	for i, v := range vmas {
		switch i % 3 {
		case 0:
			if err := as.Unmap(v.Start); err != nil {
				t.Fatal(err)
			}
		case 1:
			to := Addr(0x10000000 + i*4*PageSize)
			if err := as.Remap(v.Start, to); err != nil {
				t.Fatal(err)
			}
			want[i].start = to
			live[v] = true
		default:
			live[v] = true
		}
	}
	for i := 0; i < n; i += 3 {
		v, err := as.Map(want[i].start, want[i].len, "again")
		if err != nil {
			t.Fatal(err)
		}
		if v == vmas[i] {
			t.Fatalf("mapping %#x again handed out the unmapped VMA", uint64(want[i].start))
		}
		live[v] = true
	}
	for i, v := range vmas {
		if v.Start != want[i].start || v.Len != want[i].len || v.Name != fmt.Sprint("v", i) {
			t.Fatalf("VMA %d reads [%#x,+%#x) %q, want [%#x,+%#x)", i, uint64(v.Start), v.Len, v.Name, uint64(want[i].start), want[i].len)
		}
		if got := as.FindVMA(v.End() - 1); live[v] != (got == v) {
			t.Fatalf("VMA %d (live %v): FindVMA of its last byte gives %+v", i, live[v], got)
		}
	}
	listed := as.VMAs()
	for _, v := range listed {
		if !live[v] {
			t.Fatalf("VMAs lists %+v, which no Map returned live", v)
		}
		if as.FindVMA(v.Start) != v {
			t.Fatalf("FindVMA(%#x) is not the VMA listed there", uint64(v.Start))
		}
	}
	if len(listed) != len(live) {
		t.Fatalf("VMAs lists %d, want %d", len(listed), len(live))
	}
}

// TestInsertKeepsVMAsSorted: mappings made in any order, and a Remap
// across others, leave the list in address order (FindVMA's binary
// search depends on it).
func TestInsertKeepsVMAsSorted(t *testing.T) {
	as := NewAddressSpace()
	for _, start := range []Addr{0x50000, 0x10000, 0x90000, 0x30000, 0x70000} {
		if _, err := as.Map(start, 2*PageSize, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Remap(0x10000, 0x80000); err != nil { // from the front to between 0x70000 and 0x90000
		t.Fatal(err)
	}
	if err := as.Remap(0x90000, 0x20000); err != nil { // from the back to the front
		t.Fatal(err)
	}
	var got []Addr
	for _, v := range as.VMAs() {
		got = append(got, v.Start)
	}
	want := []Addr{0x20000, 0x30000, 0x50000, 0x70000, 0x80000}
	if !slices.Equal(got, want) {
		t.Fatalf("VMA starts %#x, want %#x", got, want)
	}
	for _, a := range want {
		if v := as.FindVMA(a + PageSize); v == nil || v.Start != a {
			t.Fatalf("FindVMA(%#x) = %+v", a+PageSize, v)
		}
	}
}

// TestPageIsOneAllocation: touching a fresh page allocates its 4 KB and
// nothing beside it, and dirty tracking survives the split of the dirty
// bit from the page: rewrites, ClearDirty, WriteClean, Remap and Unmap.
func TestPageIsOneAllocation(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x100000, 4096*PageSize, "arena"); err != nil {
		t.Fatal(err)
	}
	next := Addr(0x100000)
	touch := func() {
		if err := as.Write(next, []byte{1}); err != nil {
			t.Fatal(err)
		}
		next += PageSize
	}
	for i := 0; i < 1024; i++ {
		touch() // grow the page and dirty maps past their next few doublings
	}
	if n := testing.AllocsPerRun(500, touch); n > 1 {
		t.Fatalf("first write to a page allocates %.0f times, want 1", n)
	}

	as = NewAddressSpace()
	as.Map(0x10000, 4*PageSize, "v")
	as.Write(0x10000, []byte{1})
	as.Write(0x10000, []byte{2}) // dirty already: the cached hint, no second entry
	as.WriteClean(0x11000, []byte{3})
	as.Write(0x12000, []byte{4})
	if got := as.DirtyPages(); !slices.Equal(got, []Addr{0x10000, 0x12000}) {
		t.Fatalf("dirty pages %#x", got)
	}
	as.ClearDirty()
	if got := as.DirtyPages(); got != nil {
		t.Fatalf("dirty pages after ClearDirty: %#x", got)
	}
	as.Write(0x10000, []byte{5}) // the cached hint was dropped with the set
	if err := as.Remap(0x10000, 0x40000); err != nil {
		t.Fatal(err)
	}
	if got := as.DirtyPages(); !slices.Equal(got, []Addr{0x40000}) {
		t.Fatalf("dirty pages after Remap: %#x", got)
	}
	if got := as.PopulatedPages(); !slices.Equal(got, []Addr{0x40000, 0x41000, 0x42000}) {
		t.Fatalf("populated pages after Remap: %#x", got)
	}
	as.Unmap(0x40000)
	if as.DirtyPages() != nil || as.PopulatedPages() != nil {
		t.Fatalf("pages survive Unmap: dirty %#x populated %#x", as.DirtyPages(), as.PopulatedPages())
	}
}

// --- Borrowed frames ----------------------------------------------------------

// ZeroPage reports whether the page at a (page-aligned) reads as zeros
// without bytes of its own: never written, or only ever with zeros.
func (as *AddressSpace) ZeroPage(a Addr) bool {
	f, ok := as.BorrowedFrame(a)
	return ok && f == ZeroFrame
}

// refAS is the reference address space of the borrowed-frame
// differential: every written page is a private copy, as before pages
// borrowed frames.
type refAS struct {
	pages map[Addr]*page
	dirty map[Addr]bool
}

func (r *refAS) write(a Addr, buf []byte, markDirty bool) {
	for off := 0; off < len(buf); {
		pa := PageFloor(a + Addr(off))
		in := int(a + Addr(off) - pa)
		n := min(PageSize-in, len(buf)-off)
		if r.pages[pa] == nil {
			r.pages[pa] = new(page)
		}
		copy(r.pages[pa][in:in+n], buf[off:off+n])
		if markDirty {
			r.dirty[pa] = true
		}
		off += n
	}
}

// read copies what the reference holds at [a, a+len(buf)) into buf.
func (r *refAS) read(a Addr, buf []byte) {
	for off := 0; off < len(buf); {
		pa := PageFloor(a + Addr(off))
		in := int(a + Addr(off) - pa)
		n := min(PageSize-in, len(buf)-off)
		if pg := r.pages[pa]; pg != nil {
			copy(buf[off:off+n], pg[in:in+n])
		} else {
			clear(buf[off : off+n])
		}
		off += n
	}
}

// move carries the pages of [old, old+len) to new, dirty bits with them.
func (r *refAS) move(old, new Addr, length uint64) {
	pages, dirty := map[Addr]*page{}, map[Addr]bool{}
	for off := Addr(0); off < Addr(length); off += PageSize {
		if pg := r.pages[old+off]; pg != nil {
			pages[new+off], dirty[new+off] = pg, r.dirty[old+off]
			delete(r.pages, old+off)
			delete(r.dirty, old+off)
		}
	}
	for a, pg := range pages {
		r.pages[a] = pg
		if dirty[a] {
			r.dirty[a] = true
		}
	}
}

func sortedKeys[V any](m map[Addr]V) []Addr {
	var out []Addr
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// diffSource is where the differential draws its choices: a seeded
// generator in the test, the fuzzer's input in FuzzAddressSpace.
type diffSource interface {
	Intn(n int) int
	Read(p []byte) (int, error)
}

// differential drives an address space and the private-pages reference
// through the same operations and checks after each that they agree.
// The frames it lends, and those Share hands out, are held with a copy
// of their bytes, which must never change.
type differential struct {
	t                    testing.TB
	as                   *AddressSpace
	ref                  *refAS
	frames               []Frame
	frameBytes           [][]byte
	aStart, bStart, bAlt Addr
	got, want            []byte
}

const diffALen, diffBLen = 8 * PageSize, 4 * PageSize

func newDifferential(t testing.TB) *differential {
	d := &differential{t: t, as: NewAddressSpace(), ref: &refAS{pages: map[Addr]*page{}, dirty: map[Addr]bool{}},
		aStart: 0x100000, bStart: 0x200000, bAlt: 0x300000,
		got: make([]byte, PageSize), want: make([]byte, PageSize)}
	d.as.Map(d.aStart, diffALen, "a")
	d.as.Map(d.bStart, diffBLen, "b")
	ramp, sparse := make([]byte, PageSize), make([]byte, PageSize)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	sparse[100] = 9
	d.frames = []Frame{ZeroFrame, FrameOf(ramp), FrameOf(bytes.Repeat([]byte{0x5A}, PageSize)), FrameOf(sparse)}
	for _, f := range d.frames {
		d.frameBytes = append(d.frameBytes, bytes.Clone(f.Bytes()))
	}
	return d
}

// span picks a range of a VMA: a whole page, or a partial range that
// may cross a page boundary.
func (d *differential) span(src diffSource, v *VMA) (Addr, int) {
	if src.Intn(2) == 0 {
		return v.Start + Addr(src.Intn(int(v.Len/PageSize)))*PageSize, PageSize
	}
	n := 1 + src.Intn(2*PageSize)
	return v.Start + Addr(src.Intn(int(v.Len)-n+1)), n
}

// step performs one operation drawn from src, then compares the two
// address spaces page by page.
func (d *differential) step(src diffSource, at string) {
	t, as, ref := d.t, d.as, d.ref
	vmas := as.VMAs()
	v := vmas[src.Intn(len(vmas))]
	switch op := src.Intn(26); {
	case op < 12: // a write
		a, n := d.span(src, v)
		buf := make([]byte, n)
		var before []Frame // what each page borrows, for a write that changes no byte
		switch src.Intn(5) {
		case 1: // one non-zero byte among zeros
			buf[src.Intn(n)] = byte(1 + src.Intn(255))
		case 2:
			src.Read(buf)
		case 3: // a view of the shared zero run
			buf = Zeros(n)
		case 4: // the bytes the range already holds
			ref.read(a, buf)
			for pa := PageFloor(a); pa < a+Addr(n); pa += PageSize {
				f, _ := as.BorrowedFrame(pa)
				before = append(before, f)
			}
		}
		clean := src.Intn(4) == 0
		if clean {
			as.WriteClean(a, buf)
		} else {
			as.Write(a, buf)
		}
		ref.write(a, buf, !clean)
		for i, pa := 0, PageFloor(a); i < len(before); i, pa = i+1, pa+PageSize {
			if f, ok := as.BorrowedFrame(pa); before[i] != (Frame{}) && (!ok || f != before[i]) {
				t.Fatalf("%s: a write of the bytes page %#x held gave it a copy", at, pa)
			}
		}
	case op < 15: // a read, compared with the reference
		n := 1 + src.Intn(2*PageSize)
		a := v.Start + Addr(src.Intn(int(v.Len)-n+1))
		buf, want := make([]byte, n), make([]byte, n)
		if err := as.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		if as.ZeroRange(a, uint64(n)) && !AllZero(buf) {
			t.Fatalf("%s: ZeroRange(%#x, %d) holds a non-zero byte", at, a, n)
		}
		if ref.read(a, want); !bytes.Equal(buf, want) {
			t.Fatalf("%s: read at %#x differs from the reference", at, a)
		}
	case op < 17:
		as.ClearDirty()
		clear(ref.dirty)
	case op < 19: // move b between its two homes
		if err := as.Remap(d.bStart, d.bAlt); err != nil {
			t.Fatal(err)
		}
		ref.move(d.bStart, d.bAlt, diffBLen)
		d.bStart, d.bAlt = d.bAlt, d.bStart
	case op < 20: // unmap a and map it again empty
		if err := as.Unmap(d.aStart); err != nil {
			t.Fatal(err)
		}
		for a := d.aStart; a < d.aStart+diffALen; a += PageSize {
			delete(ref.pages, a)
			delete(ref.dirty, a)
		}
		as.Map(d.aStart, diffALen, "a")
	case op < 22: // a page is shared, cached or not; its frame joins the checked ones
		a := v.Start + Addr(src.Intn(int(v.Len/PageSize)))*PageSize
		if src.Intn(2) == 0 {
			as.invalidate()
		} else {
			as.lookup(a)
		}
		f := as.Share(a)
		if ref.read(a, d.want); !bytes.Equal(f.Bytes(), d.want) {
			t.Fatalf("%s: page %#x shared as a frame that differs from it", at, a)
		}
		if g, ok := as.BorrowedFrame(a); !ok || g != f {
			t.Fatalf("%s: shared page %#x does not borrow its frame", at, a)
		}
		d.frames, d.frameBytes = append(d.frames, f), append(d.frameBytes, bytes.Clone(f.Bytes()))
	default: // a page borrows a frame, marked dirty or not
		a := v.Start + Addr(src.Intn(int(v.Len/PageSize)))*PageSize
		f := d.frames[src.Intn(len(d.frames))]
		clean := src.Intn(2) == 0
		if clean {
			as.BorrowClean(a, f)
		} else {
			as.Borrow(a, f)
		}
		ref.write(a, f.Bytes(), !clean)
		if g, ok := as.BorrowedFrame(a); !ok || g != f {
			t.Fatalf("%s: page %#x does not borrow the frame it was given", at, a)
		}
	}
	for _, v := range as.VMAs() {
		for a := v.Start; a < v.End(); a += PageSize {
			as.ReadPageInto(a, d.got)
			ref.read(a, d.want)
			if !bytes.Equal(d.got, d.want) {
				t.Fatalf("%s: page %#x differs from the reference", at, a)
			}
			if as.ZeroRange(a, PageSize) != as.ZeroPage(a) {
				t.Fatalf("%s: ZeroRange and ZeroPage disagree on %#x", at, a)
			}
		}
	}
	if g, w := as.DirtyPages(), sortedKeys(ref.dirty); !slices.Equal(g, w) {
		t.Fatalf("%s: dirty pages %#x, want %#x", at, g, w)
	}
	if g, w := as.PopulatedPages(), sortedKeys(ref.pages); !slices.Equal(g, w) {
		t.Fatalf("%s: populated pages %#x, want %#x", at, g, w)
	}
}

// finish checks that no frame, the zero run among them, was written.
func (d *differential) finish(at string) {
	for i, f := range d.frames {
		if !bytes.Equal(f.Bytes(), d.frameBytes[i]) {
			d.t.Fatalf("%s: frame %d was written", at, i)
		}
	}
	if !AllZero(zeroRun[:]) {
		d.t.Fatalf("%s: the shared zero run was written", at)
	}
}

// TestZeroPageDifferential drives the real address space and a
// private-pages-only reference through the same seeded mix of zero,
// non-zero and byte-identical, partial and whole-page Write/WriteClean
// (zeros from a fresh slice or from the shared run), Borrow/BorrowClean
// of read-only frames (the zero page among them), Share of a page in or
// out of the page cache, reads, ClearDirty, Remap and Unmap. After every
// step every page's bytes, DirtyPages and
// PopulatedPages agree, ZeroRange agrees with ZeroPage and with the bytes
// read, and a write of the bytes a borrowing page holds leaves it on its
// frame; at the end no frame, a shared page's among them, has changed.
func TestZeroPageDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDifferential(t)
		for step := 0; step < 2000; step++ {
			d.step(rng, fmt.Sprintf("seed %d step %d", seed, step))
		}
		d.finish(fmt.Sprintf("seed %d", seed))
	}
}

// fuzzSource reads the differential's choices from a fuzz input: two
// bytes a choice; Read fills a buffer with a ramp from one byte. An
// exhausted input reads as zeros.
type fuzzSource []byte

func (s *fuzzSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *fuzzSource) Intn(n int) int { return (int(s.next()) | int(s.next())<<8) % n }

func (s *fuzzSource) Read(p []byte) (int, error) {
	b := s.next()
	for i := range p {
		p[i] = b + byte(i)
	}
	return len(p), nil
}

// FuzzAddressSpace is TestZeroPageDifferential with the fuzzer choosing
// the operations: each input is a sequence of them, checked against the
// private-pages reference after every step.
func FuzzAddressSpace(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		in := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d := newDifferential(t)
		for src, step := fuzzSource(in), 0; len(src) > 0 && step < 256; step++ {
			d.step(&src, fmt.Sprintf("step %d", step))
		}
		d.finish("end")
	})
}

// TestZeroWriteSharesTheZeroPage: writing zeros to a page without
// content allocates nothing and leaves it on the shared zero page, yet
// populated and dirty; the first non-zero byte gives it its own copy.
func TestZeroWriteSharesTheZeroPage(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x100000, 4096*PageSize, "arena"); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, PageSize)
	next := Addr(0x100000)
	touch := func() {
		if err := as.Write(next, zeros); err != nil {
			t.Fatal(err)
		}
		next += PageSize
	}
	for i := 0; i < 1024; i++ {
		touch() // grow the page and dirty maps past their next few doublings
	}
	if n := testing.AllocsPerRun(500, touch); n != 0 {
		t.Fatalf("a zero write to a fresh page allocates %.0f times, want 0", n)
	}
	touched := int((next - 0x100000) / PageSize)
	if !as.ZeroPage(0x100000) || len(as.PopulatedPages()) != touched || len(as.DirtyPages()) != touched {
		t.Fatalf("zero-written pages: zero %v, populated %d, dirty %d",
			as.ZeroPage(0x100000), len(as.PopulatedPages()), len(as.DirtyPages()))
	}
	as.Write(0x100000+7, []byte{0, 5})
	if as.ZeroPage(0x100000) || !as.ZeroPage(0x100000+PageSize) {
		t.Fatal("a non-zero write did not give the page its own copy, or gave its neighbour one")
	}
	if v, _ := as.ReadU64(0x100000 + 7); v != 5<<8 {
		t.Fatalf("read back %#x, want 0x500", v)
	}
}

// TestZerosViewTheSharedRun: Zeros returns capacity-cut views of the
// shared run up to ZeroRunLen and a fresh slice past it; IsZeros
// recognises exactly those views and their non-empty subslices.
func TestZerosViewTheSharedRun(t *testing.T) {
	for _, n := range []int{1, PageSize, ZeroRunLen} {
		z := Zeros(n)
		if len(z) != n || cap(z) != n || !IsZeros(z) || !IsZeros(z[n-1:]) {
			t.Errorf("Zeros(%d): len %d, cap %d, IsZeros %v", n, len(z), cap(z), IsZeros(z))
		}
		_ = append(z, 0xFF)
	}
	if big := Zeros(ZeroRunLen + 1); IsZeros(big) || !AllZero(big) {
		t.Error("Zeros past the run must be a fresh zero slice")
	}
	if IsZeros(Zeros(0)) || IsZeros(make([]byte, 8)) || IsZeros(nil) {
		t.Error("IsZeros accepted an empty slice or a zero slice of another origin")
	}
	if !AllZero(zeroRun[:]) {
		t.Fatal("an append to a Zeros view wrote into the shared run")
	}
}

// TestZeroRange: a range is zero only when mapped end to end and every
// page under it is untouched or on the shared zero page, cached or not.
func TestZeroRange(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x100000, 4*PageSize, "a")
	as.Map(0x105000, PageSize, "b") // a one-page gap at 0x104000
	as.Write(0x101000, make([]byte, PageSize))
	as.Write(0x102000+5, []byte{1})
	as.Write(0x103000, []byte{1})
	as.Write(0x103000, []byte{0}) // its own bytes, all zero
	for _, c := range []struct {
		a    Addr
		n    uint64
		want bool
	}{
		{0x100000, PageSize, true},      // never written
		{0x100800, PageSize, true},      // never written, then zero-written
		{0x101000, PageSize, true},      // written only with zeros
		{0x102000, 5, false},            // a page with bytes of its own
		{0x101fff, 2, false},            // into it
		{0x103000, PageSize, false},     // its own bytes, all zero
		{0x100000, 0, true},             // empty and mapped
		{0x103fff, 2, false},            // across the gap
		{0x104000, 1, false},            // unmapped
		{0x105000, PageSize, true},      // the other mapping
		{^Addr(0) - 10, 100, false},     // wraps
		{0x100000, 5 * PageSize, false}, // reaches the gap
	} {
		for pass := 0; pass < 2; pass++ { // first a cache miss, then a hit
			if got := as.ZeroRange(c.a, c.n); got != c.want {
				t.Errorf("pass %d: ZeroRange(%#x, %d) = %v, want %v", pass, c.a, c.n, got, c.want)
			}
		}
		as.invalidate()
	}
}
