// Package mem models per-process virtual memory: page-granular address
// spaces with mmap/mremap/munmap equivalents and dirty-page tracking.
//
// It is the substrate for two behaviours that drive MigrRDMA's design
// (paper §3.2): CRIU's iterative pre-copy needs dirty diffs between
// rounds, and CRIU's habit of restoring memory at a *temporary* virtual
// address is what makes MR registration during partial restore hard —
// the RNIC must be given the application's original virtual addresses.
package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"migrrdma/internal/fifo"
)

// PageSize is the page granularity of every address space.
const PageSize = 4096

// Addr is a virtual address.
type Addr uint64

// PageFloor rounds a down to a page boundary.
func PageFloor(a Addr) Addr { return a &^ (PageSize - 1) }

// PageCeil rounds n up to a whole number of pages.
func PageCeil(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// VMA is a mapped virtual memory area.
type VMA struct {
	Start Addr
	Len   uint64 // always a multiple of PageSize
	Name  string // diagnostic label ("heap", "mr-buffer", "criu-temp", ...)
	// Device marks NIC on-chip memory mapped into the address space
	// (ibv_alloc_dm); CRIU must not dump or restore its contents.
	Device bool
}

// End returns the first address past the area.
func (v VMA) End() Addr { return v.Start + Addr(v.Len) }

// Contains reports whether [a, a+n) lies inside the area.
func (v VMA) Contains(a Addr, n uint64) bool {
	return a >= v.Start && a+Addr(n) <= v.End() && a+Addr(n) >= a
}

// FaultError reports an access to unmapped memory.
type FaultError struct {
	Addr Addr
	Op   string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x (unmapped)", e.Op, uint64(e.Addr))
}

// page is the content of one touched page: exactly PageSize bytes,
// either one allocation the address space owns or a Frame it borrows.
// Whether it borrows is kept beside the pointer (pageRef, and slotBorrowed
// in the page cache); its dirty bit lives in the address space's dirty
// set, because a flag beside the bytes would push every owned page into
// the next allocation size class.
type page [PageSize]byte

// pageRef is a written page: its bytes, and whether they are a frame the
// page borrows rather than its own.
type pageRef struct {
	pg       *page
	borrowed bool
}

// ZeroRunLen is the length of zeroRun, the one run of zeros every
// address space and zero payload share and nothing writes: it covers
// every length a uint16 field can carry.
const ZeroRunLen = 1 << 16

var zeroRun [ZeroRunLen]byte

// zeroPage is the first page of zeroRun, ZeroFrame's bytes: what every
// page written only with zeros borrows, in every address space.
var zeroPage = (*page)(zeroRun[:PageSize])

// Frame is a page of bytes that nothing writes: the zero page, a record
// of a checkpoint image, a window of a writer's table. Any number of
// pages, in any number of address spaces and concurrent simulations, may
// borrow one (Borrow); a write that changes a borrowing page's bytes
// gives that page its own copy first, so a frame's bytes never change.
type Frame struct{ pg *page }

// ZeroFrame is the frame of zeros.
var ZeroFrame = Frame{zeroPage}

// FrameOf hands the first PageSize bytes of b over as a frame; nothing
// may write them afterwards. It panics if b is shorter than a page.
func FrameOf(b []byte) Frame { return Frame{(*page)(b)} }

// Bytes returns the frame's bytes, which must not be written. Its
// capacity is PageSize, so an append cannot reach past the frame.
func (f Frame) Bytes() []byte { return f.pg[:] }

// Zeros returns n zero bytes: a view of the shared zero run when n fits
// it (capacity cut to n, so an append cannot reach the run), a fresh
// slice otherwise. A view must never be written; IsZeros recognises it.
func Zeros(n int) []byte {
	if n <= ZeroRunLen {
		return zeroRun[:n:n]
	}
	return make([]byte, n)
}

// IsZeros reports whether b is a non-empty view of the shared zero run.
// It tests where b points, not what it holds.
func IsZeros(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	off := uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&zeroRun[0]))
	return off < ZeroRunLen && int(off)+len(b) <= ZeroRunLen
}

// AddressSpace is one process's virtual memory.
type AddressSpace struct {
	vmas []*VMA // sorted by Start
	// slab hands out the VMAs Map makes, a slab at a time. Nothing is
	// put back: a caller may keep a VMA past its Unmap, and Remap moves
	// one in place, so every VMA keeps its identity.
	slab fifo.FreeList[*VMA]
	// pages holds the written pages: bytes of their own, or a frame they
	// borrow (zeroPage for a page written only with zeros). A mapped page
	// not here reads as zeros too, but has no content (PopulatedPages
	// leaves it out).
	pages map[Addr]pageRef
	dirty map[Addr]struct{} // pages written (and marked) since ClearDirty

	// cache short-circuits the per-page VMA search and map probe of
	// access for recently touched pages: DMA traffic cycles over a small
	// working set (message slots, WQE and CQE rings), so nearly every
	// access is a slot index plus an address compare. Only mapped pages
	// are ever cached, so Map needs no invalidation; Unmap and Remap drop
	// the whole table (see invalidate).
	cache [pageCacheSlots]pageSlot
}

// pageCacheSlots sizes the direct-mapped page cache (4 KB per address
// space). 256 is the smallest power of two that holds the hit rate on
// all eight benchmark workloads, and a larger table adds nothing. Hits
// per page access, seed 1 (EXPERIMENTS.md "PR 14" has the full table):
//
//	slots          1    16    64   128   256   512
//	bw-send16     1%   68%   93%   96%   96%   96%
//	pagehog-*     0%    1%    1%   33%   96%   96%
//	tenancy-2000  3%   41%   67%   82%   95%   95%
//	drain-xrack  15%   72%   81%   83%   83%   83%
//
// A last-hit cache misses almost always: one message touches its
// payload page, a WQE ring page and a CQE ring page in turn.
const pageCacheSlots = 256

// pageSlot caches the resolution of one page address. tag is the page
// address with slotValid set, so the zero slot matches no page; the
// page is inside a VMA, and pg is its entry in pages (nil while it is
// still untouched). slotBorrowed in the tag is the entry's borrowed bit.
// slotDirty records that the page is known to be in the dirty set, so
// rewriting a dirty page does not probe the set again.
type pageSlot struct {
	tag Addr
	pg  *page
}

const (
	slotValid    Addr = 1
	slotDirty    Addr = 2
	slotBorrowed Addr = 4
	slotHints         = slotDirty | slotBorrowed
)

func cacheSlot(pa Addr) Addr { return (pa / PageSize) % pageCacheSlots }

// invalidate empties the page cache. Unmap and Remap call it: both
// change which addresses are mapped and which page backs them.
func (as *AddressSpace) invalidate() { as.cache = [pageCacheSlots]pageSlot{} }

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[Addr]pageRef), dirty: make(map[Addr]struct{})}
}

// Map establishes a VMA at an explicit address. start must be
// page-aligned; length is rounded up to whole pages. Overlap with an
// existing mapping is an error (the simulation has no MAP_FIXED
// clobbering).
func (as *AddressSpace) Map(start Addr, length uint64, name string) (*VMA, error) {
	return as.mapVMA(start, length, name, false)
}

// MapDevice establishes a device-memory VMA (on-chip memory).
func (as *AddressSpace) MapDevice(start Addr, length uint64, name string) (*VMA, error) {
	return as.mapVMA(start, length, name, true)
}

func (as *AddressSpace) mapVMA(start Addr, length uint64, name string, dev bool) (*VMA, error) {
	if start%PageSize != 0 {
		return nil, fmt.Errorf("mem: map at unaligned address %#x", uint64(start))
	}
	if length == 0 {
		return nil, fmt.Errorf("mem: map of zero length")
	}
	length = PageCeil(length)
	if as.overlaps(start, length) {
		return nil, fmt.Errorf("mem: map [%#x,+%#x) overlaps existing mapping", uint64(start), length)
	}
	v := as.slab.Get(fifo.SlabMax, fifo.Objects[VMA])
	*v = VMA{Start: start, Len: length, Name: name, Device: dev}
	as.insert(v)
	return v, nil
}

// MapAnywhere maps length bytes at the lowest page-aligned gap at or
// above hint.
func (as *AddressSpace) MapAnywhere(hint Addr, length uint64, name string) (*VMA, error) {
	return as.mapAnywhere(hint, length, name, false)
}

// MapAnywhereDevice is MapAnywhere for device memory (on-chip NIC
// memory mapped into the process); CRIU does not dump its content.
func (as *AddressSpace) MapAnywhereDevice(hint Addr, length uint64, name string) (*VMA, error) {
	return as.mapAnywhere(hint, length, name, true)
}

func (as *AddressSpace) mapAnywhere(hint Addr, length uint64, name string, dev bool) (*VMA, error) {
	length = PageCeil(length)
	start := PageFloor(hint)
	if start < PageSize {
		start = PageSize // never map the zero page
	}
	for _, v := range as.vmas {
		if v.Start >= start+Addr(length) {
			break
		}
		if v.End() > start {
			start = v.End()
		}
	}
	return as.mapVMA(start, length, name, dev)
}

// Unmap removes the VMA starting exactly at start, discarding its pages.
func (as *AddressSpace) Unmap(start Addr) error {
	for i, v := range as.vmas {
		if v.Start == start {
			for a := v.Start; a < v.End(); a += PageSize {
				delete(as.pages, a)
				delete(as.dirty, a)
			}
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			as.invalidate()
			return nil
		}
	}
	return fmt.Errorf("mem: unmap: no mapping at %#x", uint64(start))
}

// Remap moves the VMA at old to new, carrying the backing pages with it
// (the semantics of mremap(MREMAP_FIXED): the virtual address changes,
// the physical contents do not). Dirty state travels with the pages.
func (as *AddressSpace) Remap(old, new Addr) error {
	if new%PageSize != 0 {
		return fmt.Errorf("mem: remap to unaligned address %#x", uint64(new))
	}
	var v *VMA
	for _, c := range as.vmas {
		if c.Start == old {
			v = c
			break
		}
	}
	if v == nil {
		return fmt.Errorf("mem: remap: no mapping at %#x", uint64(old))
	}
	if new == old {
		return nil
	}
	// Check the destination range is free (ignoring the source itself).
	for _, c := range as.vmas {
		if c == v {
			continue
		}
		if new < c.End() && c.Start < new+Addr(v.Len) {
			return fmt.Errorf("mem: remap destination [%#x,+%#x) overlaps %s", uint64(new), v.Len, c.Name)
		}
	}
	// Lift the pages out before putting any back: the ranges may overlap.
	type movedPage struct {
		ref   pageRef
		dirty bool
	}
	moved := make(map[Addr]movedPage, v.Len/PageSize)
	for off := Addr(0); off < Addr(v.Len); off += PageSize {
		if ref, ok := as.pages[old+off]; ok {
			_, dirty := as.dirty[old+off]
			moved[new+off] = movedPage{ref, dirty}
			delete(as.pages, old+off)
			delete(as.dirty, old+off)
		}
	}
	for a, m := range moved {
		as.pages[a] = m.ref
		if m.dirty {
			as.dirty[a] = struct{}{}
		}
	}
	// Only v moves: take it out and put it back where new sorts.
	i := as.search(old)
	as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	v.Start = new
	as.insert(v)
	as.invalidate()
	return nil
}

// FindVMA returns the VMA containing a, or nil.
func (as *AddressSpace) FindVMA(a Addr) *VMA {
	// Binary search for the first VMA ending past a.
	lo, hi := 0, len(as.vmas)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as.vmas[mid].End() > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(as.vmas) && as.vmas[lo].Start <= a {
		return as.vmas[lo]
	}
	return nil
}

// VMAs returns the current mappings in address order. The returned slice
// is a copy; the VMA pointers are live.
func (as *AddressSpace) VMAs() []*VMA {
	out := make([]*VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// Mapped reports whether the whole range [a, a+n) is mapped.
func (as *AddressSpace) Mapped(a Addr, n uint64) bool {
	for n > 0 {
		v := as.FindVMA(a)
		if v == nil {
			return false
		}
		span := uint64(v.End() - a)
		if span >= n {
			return true
		}
		a, n = v.End(), n-span
	}
	return true
}

// Read copies len(buf) bytes at a into buf.
func (as *AddressSpace) Read(a Addr, buf []byte) error {
	return as.access(a, buf, false, true)
}

// Write copies buf to a, marking touched pages dirty.
func (as *AddressSpace) Write(a Addr, buf []byte) error {
	return as.access(a, buf, true, true)
}

// WriteClean copies buf to a without marking pages dirty. CRIU's restore
// path uses it so a freshly restored image starts with a clean dirty set.
func (as *AddressSpace) WriteClean(a Addr, buf []byte) error {
	return as.access(a, buf, true, false)
}

// Borrow makes the page at a, which must be page-aligned, borrow f: it
// reads as f's bytes without a copy, and is populated and marked dirty
// as by a Write of them.
func (as *AddressSpace) Borrow(a Addr, f Frame) error { return as.borrow(a, f, true) }

// BorrowClean is Borrow without the dirty mark, as WriteClean is Write
// without it: CRIU's restore installs image records with it.
func (as *AddressSpace) BorrowClean(a Addr, f Frame) error { return as.borrow(a, f, false) }

func (as *AddressSpace) borrow(a Addr, f Frame, markDirty bool) error {
	if a%PageSize != 0 {
		return fmt.Errorf("mem: borrow at unaligned address %#x", uint64(a))
	}
	s := as.lookup(a)
	if s == nil {
		return &FaultError{Addr: a, Op: "write"}
	}
	if s.pg != f.pg {
		as.set(s, a, f.pg, true)
	}
	if markDirty {
		as.markDirty(s, a)
	}
	return nil
}

// BorrowedFrame returns the frame the page at a (page-aligned) borrows,
// ZeroFrame for a page without content; ok is false when the page owns
// its bytes.
func (as *AddressSpace) BorrowedFrame(a Addr) (f Frame, ok bool) {
	switch ref := as.pages[a]; {
	case ref.pg == nil:
		return ZeroFrame, true
	case ref.borrowed:
		return Frame{ref.pg}, true
	}
	return Frame{}, false
}

// Share returns the page at a (page-aligned) as a frame without a copy:
// the frame it borrows, ZeroFrame for a page without content, or its own
// bytes, which it borrows from then on, so the next write that changes
// them gives it a copy first and the frame never changes.
func (as *AddressSpace) Share(a Addr) Frame {
	ref := as.pages[a]
	if ref.pg == nil {
		return ZeroFrame
	}
	if !ref.borrowed {
		as.pages[a] = pageRef{ref.pg, true}
		if s := &as.cache[cacheSlot(a)]; s.tag&^slotHints == a|slotValid {
			s.tag |= slotBorrowed
		}
	}
	return Frame{ref.pg}
}

// access reads or writes buf at a. A write to a page without bytes of its
// own (untouched, which reads as the zero page, or borrowing a frame)
// copies nothing when it leaves the page's bytes as they are: an untouched
// page then borrows the zero page. Only a write that changes them gives
// the page its own copy of the frame first (copy-on-write).
func (as *AddressSpace) access(a Addr, buf []byte, write, markDirty bool) error {
	op := "read"
	if write {
		op = "write"
	}
	zeros := write && IsZeros(buf)
	for off := 0; off < len(buf); {
		pa := PageFloor(a + Addr(off))
		slot := as.lookup(pa)
		if slot == nil {
			return &FaultError{Addr: a + Addr(off), Op: op}
		}
		pg := slot.pg
		inPage := int(a + Addr(off) - pa)
		n := PageSize - inPage
		if n > len(buf)-off {
			n = len(buf) - off
		}
		src := buf[off : off+n]
		if write {
			if pg == nil || slot.tag&slotBorrowed != 0 {
				frame := pg
				if frame == nil {
					frame = zeroPage
				}
				pg = frame
				if !(zeros && frame == zeroPage) && !bytes.Equal(frame[inPage:inPage+n], src) {
					pg = new(page)
					if frame != zeroPage && n < PageSize {
						*pg = *frame
					}
				}
				if slot.pg != pg {
					as.set(slot, pa, pg, pg == frame)
				}
			}
			if slot.tag&slotBorrowed == 0 {
				copy(pg[inPage:inPage+n], src)
			}
			if markDirty {
				as.markDirty(slot, pa)
			}
		} else {
			if pg == nil || pg == zeroPage {
				clear(src)
			} else {
				copy(src, pg[inPage:inPage+n])
			}
		}
		off += n
	}
	return nil
}

// lookup returns the page-cache slot resolving the page at pa, filling
// it on a miss, or nil when pa is unmapped.
func (as *AddressSpace) lookup(pa Addr) *pageSlot {
	s := &as.cache[cacheSlot(pa)]
	if s.tag&^slotHints != pa|slotValid {
		return as.fill(s, pa)
	}
	return s
}

// fill points the page-cache slot s at the page at pa after a miss, or
// returns nil when pa is unmapped.
func (as *AddressSpace) fill(s *pageSlot, pa Addr) *pageSlot {
	if as.FindVMA(pa) == nil {
		return nil
	}
	ref := as.pages[pa]
	*s = pageSlot{tag: pa | slotValid, pg: ref.pg}
	if ref.borrowed {
		s.tag |= slotBorrowed
	}
	return s
}

// set points the page at pa, resolved by slot s, at pg: a frame it
// borrows, or bytes of its own.
func (as *AddressSpace) set(s *pageSlot, pa Addr, pg *page, borrowed bool) {
	as.pages[pa] = pageRef{pg, borrowed}
	s.pg = pg
	s.tag &^= slotBorrowed
	if borrowed {
		s.tag |= slotBorrowed
	}
}

func (as *AddressSpace) markDirty(s *pageSlot, pa Addr) {
	if s.tag&slotDirty == 0 {
		as.dirty[pa] = struct{}{}
		s.tag |= slotDirty
	}
}

// ZeroRange reports whether [a, a+n) is mapped and every page it touches
// is untouched or borrows the zero page, so the range reads as zeros. It
// answers from the page cache and reads no bytes.
func (as *AddressSpace) ZeroRange(a Addr, n uint64) bool {
	end := a + Addr(n)
	if end < a {
		return false
	}
	for pa := PageFloor(a); pa < end; pa += PageSize {
		s := as.lookup(pa)
		if s == nil || (s.pg != nil && s.pg != zeroPage) {
			return false
		}
	}
	return true
}

// ReadU64 reads a little-endian 64-bit value (used by ATOMIC verbs).
func (as *AddressSpace) ReadU64(a Addr) (uint64, error) {
	var b [8]byte
	if err := as.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit value.
func (as *AddressSpace) WriteU64(a Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(a, b[:])
}

// DirtyPages returns the addresses of dirty pages in address order.
func (as *AddressSpace) DirtyPages() []Addr {
	if len(as.dirty) == 0 {
		return nil
	}
	out := make([]Addr, 0, len(as.dirty))
	for a := range as.dirty {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// ClearDirty resets dirty tracking (start of a pre-copy round).
func (as *AddressSpace) ClearDirty() {
	clear(as.dirty)
	for i := range as.cache {
		as.cache[i].tag &^= slotDirty
	}
}

// PopulatedPages returns the addresses of pages that have content, in
// address order. Untouched (all-zero) pages are omitted, as CRIU omits
// them from images.
func (as *AddressSpace) PopulatedPages() []Addr {
	if len(as.pages) == 0 {
		return nil
	}
	out := make([]Addr, 0, len(as.pages))
	for a := range as.pages {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// AllZero reports whether every byte of buf is zero. The page channel
// ships a page that passes it as a header instead of full content
// (CRIU's zero-page image optimization). A compare against the zero page
// runs at memory-compare speed, about 7× a loop over words.
func AllZero(buf []byte) bool {
	for ; len(buf) > PageSize; buf = buf[PageSize:] {
		if !bytes.Equal(buf[:PageSize], zeroPage[:]) {
			return false
		}
	}
	return bytes.Equal(buf, zeroPage[:len(buf)])
}

// ReadPageInto copies the page at a (which must be page-aligned) into
// dst[:PageSize]; a page without content reads as zeros.
func (as *AddressSpace) ReadPageInto(a Addr, dst []byte) {
	if pg := as.pages[a].pg; pg != nil {
		copy(dst[:PageSize], pg[:])
	} else {
		clear(dst[:PageSize])
	}
}

func (as *AddressSpace) overlaps(start Addr, length uint64) bool {
	for _, v := range as.vmas {
		if start < v.End() && v.Start < start+Addr(length) {
			return true
		}
	}
	return false
}

// search returns the index of the first VMA starting at or after a.
func (as *AddressSpace) search(a Addr) int {
	i, _ := slices.BinarySearchFunc(as.vmas, a, func(v *VMA, a Addr) int { return cmp.Compare(v.Start, a) })
	return i
}

// insert places v, which overlaps nothing, at its sorted position.
func (as *AddressSpace) insert(v *VMA) {
	i := as.search(v.Start)
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}
