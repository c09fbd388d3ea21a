package criu

import (
	"bytes"
	"testing"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// fakeHost satisfies HostServices on a bare scheduler with an
// instantaneous (but counted) transfer path.
type fakeHost struct {
	s           *sim.Scheduler
	transferred int
}

func (f *fakeHost) Sleep(d time.Duration)         { f.s.Sleep(d) }
func (f *fakeHost) Now() time.Duration            { return f.s.Now() }
func (f *fakeHost) Node() string                  { return "fake" }
func (f *fakeHost) TransferTo(peer string, n int) { f.transferred += n }

func newTool(s *sim.Scheduler) (*Tool, *fakeHost) {
	h := &fakeHost{s: s}
	return New(h, Config{}), h
}

func TestDumpCapturesPopulatedThenDirty(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		p.AS.Map(0x1000, 16*mem.PageSize, "heap")
		p.AS.Write(0x1000, []byte("a"))
		p.AS.Write(0x1000+4*mem.PageSize, []byte("b"))
		full := tool.Dump(p, true)
		if len(full.Pages) != 2 {
			t.Errorf("full dump has %d pages, want 2", len(full.Pages))
		}
		// Nothing dirtied since: the diff must be empty.
		if diff := tool.Dump(p, false); len(diff.Pages) != 0 {
			t.Errorf("clean diff has %d pages", len(diff.Pages))
		}
		p.AS.Write(0x1000+8*mem.PageSize, []byte("c"))
		if diff := tool.Dump(p, false); len(diff.Pages) != 1 {
			t.Errorf("diff has %d pages, want 1", len(diff.Pages))
		}
	})
	s.Run()
}

func TestDumpSkipsDeviceVMAs(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		p.AS.Map(0x1000, mem.PageSize, "heap")
		p.AS.MapDevice(0x9000, mem.PageSize, "on-chip")
		p.AS.Write(0x1000, []byte{1})
		p.AS.Write(0x9000, []byte{2})
		img := tool.Dump(p, true)
		for _, pg := range img.Pages {
			if pg.Addr == 0x9000 {
				t.Error("device page dumped")
			}
		}
		found := false
		for _, v := range img.VMAs {
			if v.Start == 0x9000 && v.Device {
				found = true
			}
		}
		if !found {
			t.Error("device VMA missing from memory table")
		}
	})
	s.Run()
}

func TestPartialRestoreUsesTempAddresses(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, 2*mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("payload"))
		img := tool.Dump(src, true)

		r := tool.BeginRestore(src)
		if err := r.PartialRestore(img); err != nil {
			t.Fatal(err)
		}
		// §3.2: the memory is NOT at its original address during
		// partial restore…
		if r.AS.Mapped(0x10000, 1) {
			t.Error("partial restore mapped memory at the original address")
		}
		// …and moves there only at Finalize.
		if err := r.Finalize(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 7)
		if err := r.AS.Read(0x10000, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("payload")) {
			t.Errorf("restored content %q", got)
		}
	})
	s.Run()
}

func TestMapAtOriginalClaimsEarly(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, mem.PageSize, "mr-buffer")
		src.AS.Map(0x20000, mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("mr-data"))
		img := tool.Dump(src, true)

		r := tool.BeginRestore(src)
		// The plugin claims the MR VMA first…
		if err := r.MapAtOriginal(img, img.VMAs[0]); err != nil {
			t.Fatal(err)
		}
		if !r.AS.Mapped(0x10000, 1) {
			t.Fatal("claimed VMA not at original address")
		}
		got := make([]byte, 7)
		r.AS.Read(0x10000, got)
		if !bytes.Equal(got, []byte("mr-data")) {
			t.Errorf("claimed content %q", got)
		}
		// …and PartialRestore leaves it alone while temp-mapping the rest.
		if err := r.PartialRestore(img); err != nil {
			t.Fatal(err)
		}
		if r.AS.Mapped(0x20000, 1) {
			t.Error("unclaimed VMA landed at its original address during partial restore")
		}
	})
	s.Run()
}

func TestApplyDiffMergesIntoTemp(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("v1"))
		img := tool.Dump(src, true)
		r := tool.BeginRestore(src)
		r.PartialRestore(img)
		// Source keeps running and dirties the page.
		src.AS.Write(0x10000, []byte("v2"))
		diff := tool.Dump(src, false)
		r.ApplyChunk(diff, diff.Pages, nil)
		r.Finalize()
		got := make([]byte, 2)
		r.AS.Read(0x10000, got)
		if string(got) != "v2" {
			t.Errorf("after diff merge: %q", got)
		}
	})
	s.Run()
}

func TestFullRestoreSwapsAddressSpaceAndThaws(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		p.AS.Map(0x10000, mem.PageSize, "heap")
		p.AS.Write(0x10000, []byte("x"))
		img := tool.Dump(p, true)
		r := tool.BeginRestore(p)
		r.PartialRestore(img)
		tool.Freeze(p)
		if !p.Frozen() {
			t.Fatal("freeze did not freeze")
		}
		r.Finalize()
		r.FullRestore()
		if p.Frozen() {
			t.Fatal("full restore did not thaw")
		}
		if p.AS != r.AS {
			t.Fatal("address space not swapped")
		}
	})
	s.Run()
}

func TestDumpCostGrowsSuperlinearly(t *testing.T) {
	s := sim.New(1)
	// Suppress the fixed dump cost so only the VMA walk is measured.
	tool := New(&fakeHost{s: s}, Config{DumpBase: time.Nanosecond})
	cost := func(vmas int) time.Duration {
		p := task.New(s, "p")
		var d time.Duration
		s.Go("measure", func() {
			for i := 0; i < vmas; i++ {
				p.AS.Map(mem.Addr(0x10000+i*0x10000), mem.PageSize, "m")
			}
			start := s.Now()
			tool.Dump(p, true)
			d = s.Now() - start
		})
		s.Run()
		return d
	}
	c10, c100 := cost(10), cost(100)
	if float64(c100) < 10*float64(c10) {
		t.Fatalf("dump cost not superlinear: 10 VMAs %v, 100 VMAs %v", c10, c100)
	}
}

func TestFullRestorePanicsBeforeFinalize(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r := tool.BeginRestore(p)
		r.FullRestore()
	})
	s.Run()
}

// TestDumpedPagesShareASlabSafely: Dump and DumpPages give each record
// the right bytes, capped so that an append cannot write into the next
// record, and no later write to the process reaches a record. A running
// process's batch is read into one slab (two allocations: records and
// slab); a frozen process's batch shares its pages (one allocation, the
// records), and a write after the thaw copies the page it changes.
func TestDumpedPagesShareASlabSafely(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		p.AS.Map(0x1000, 8*mem.PageSize, "heap")
		var addrs []mem.Addr
		for i := 0; i < 4; i++ {
			addrs = append(addrs, mem.Addr(0x1000+i*mem.PageSize))
		}
		for _, frozen := range []bool{false, true} {
			pass, wantAllocs := "running", 2.0
			for i, a := range addrs {
				p.AS.Write(a, bytes.Repeat([]byte{byte('a' + i)}, mem.PageSize))
			}
			if frozen {
				pass, wantAllocs = "frozen", 1
				tool.Freeze(p)
			}
			for name, recs := range map[string][]PageRec{
				"Dump":      tool.Dump(p, true).Pages,
				"DumpPages": tool.DumpPages(p, append(addrs, 0x1000+6*mem.PageSize)), // and one page without content
			} {
				for i, a := range addrs {
					r, b := recs[i], recs[i].Data.Bytes()
					if r.Addr != a || len(b) != mem.PageSize || cap(b) != mem.PageSize ||
						!bytes.Equal(b, bytes.Repeat([]byte{byte('a' + i)}, mem.PageSize)) {
						t.Fatalf("%s %s: record %d: addr %#x, len %d, cap %d, first byte %q", pass, name, i, r.Addr, len(b), cap(b), b[0])
					}
				}
				if name == "DumpPages" && !mem.AllZero(recs[4].Data.Bytes()) {
					t.Errorf("%s %s: a page without content is not zero", pass, name)
				}
				_ = append(recs[0].Data.Bytes(), 'X')
				if recs[1].Data.Bytes()[0] != 'b' {
					t.Errorf("%s %s: an append to record 0 wrote into record 1", pass, name)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { tool.DumpPages(p, addrs) }); allocs != wantAllocs {
				t.Errorf("%s: reading a batch of %d pages allocates %.0f times, want %.0f", pass, len(addrs), allocs, wantAllocs)
			}
			// A later write, after the thaw if frozen, does not reach a record.
			recs := tool.DumpPages(p, addrs[:1])
			if frozen {
				tool.Thaw(p)
			}
			p.AS.Write(addrs[0], []byte("z"))
			got := make([]byte, 2)
			p.AS.Read(addrs[0], got)
			if b := recs[0].Data.Bytes(); b[0] != 'a' || b[1] != 'a' || string(got) != "za" {
				t.Errorf("%s: after a write of %q the record starts %q and the page %q", pass, "z", b[:2], got)
			}
		}
	})
	s.Run()
}

// TestZeroPageRecordsAliasOneZeroPage: a dump gives every zero page
// (written only with zeros, or never) a record aliasing one read-only
// zero page and copies the rest, and the records are bytes-equal to a
// dump that copies every page. A zero record is capped like a slab
// record, so an append to it cannot write into the next record or into
// the zero page.
func TestZeroPageRecordsAliasOneZeroPage(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		p.AS.Map(0x1000, 8*mem.PageSize, "heap")
		page := func(i int) mem.Addr { return mem.Addr(0x1000 + i*mem.PageSize) }
		p.AS.Write(page(0), bytes.Repeat([]byte{'a'}, mem.PageSize))
		p.AS.Write(page(1), make([]byte, mem.PageSize)) // zeros: the shared zero page
		p.AS.Write(page(2), make([]byte, 100))          // partial zeros: the same
		p.AS.Write(page(3), []byte{0, 0, 'd'})
		p.AS.Write(page(4), []byte{'e'}) // private, then zeroed: still its own copy
		p.AS.Write(page(4), []byte{0})
		addrs := []mem.Addr{page(0), page(1), page(2), page(3), page(4), page(5)} // 5: never written
		zero := map[mem.Addr]bool{page(1): true, page(2): true, page(5): true}

		recs := tool.DumpPages(p, addrs)
		var zeroData *byte
		for i, a := range addrs {
			want := make([]byte, mem.PageSize)
			p.AS.ReadPageInto(a, want)
			r, b := recs[i], recs[i].Data.Bytes()
			if r.Addr != a || !bytes.Equal(b, want) || len(b) != mem.PageSize || cap(b) != mem.PageSize {
				t.Fatalf("record %d: addr %#x, len %d, cap %d, or bytes differ from the page", i, r.Addr, len(b), cap(b))
			}
			if !zero[a] {
				continue
			}
			if zeroData == nil {
				zeroData = &b[0]
			} else if &b[0] != zeroData {
				t.Errorf("record %d (%#x): a zero page with a copy of its own", i, a)
			}
		}
		if &recs[0].Data.Bytes()[0] == zeroData || &recs[4].Data.Bytes()[0] == zeroData {
			t.Error("a page with a byte of its own aliases the zero page")
		}
		_ = append(recs[1].Data.Bytes(), 'X')
		if !mem.AllZero(recs[2].Data.Bytes()) || !mem.AllZero(mem.Zeros(mem.ZeroRunLen)) {
			t.Error("an append to a zero record wrote into the zero page")
		}

		// A batch of zero pages costs its records and nothing else.
		zeros := []mem.Addr{page(1), page(2), page(5)}
		if allocs := testing.AllocsPerRun(20, func() { tool.DumpPages(p, zeros) }); allocs > 1 {
			t.Errorf("dumping %d zero pages allocates %.0f times, want 1 (records)", len(zeros), allocs)
		}
	})
	s.Run()
}

// TestBorrowedPageRecordsPointAtTheirFrame: a page that borrows a frame
// gets a record pointing at that frame, however many pages borrow it; a
// borrowing page a write changed owns its bytes again and is copied. A
// batch of borrowing pages costs its records and nothing else.
func TestBorrowedPageRecordsPointAtTheirFrame(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		p.AS.Map(0x1000, 8*mem.PageSize, "heap")
		page := func(i int) mem.Addr { return mem.Addr(0x1000 + i*mem.PageSize) }
		f := mem.FrameOf(bytes.Repeat([]byte{'f'}, mem.PageSize))
		p.AS.Borrow(page(0), f)
		p.AS.BorrowClean(page(1), f)
		p.AS.Borrow(page(2), f)
		p.AS.Write(page(2)+7, []byte{'x'}) // changes a byte: a copy of its own

		recs := tool.DumpPages(p, []mem.Addr{page(0), page(1), page(2)})
		if recs[0].Data != f || recs[1].Data != f {
			t.Error("a borrowing page's record does not point at its frame")
		}
		if b := recs[2].Data.Bytes(); recs[2].Data == f || b[7] != 'x' || b[8] != 'f' {
			t.Errorf("a page a write changed: record aliases the frame (%v) or holds %q", recs[2].Data == f, b[6:9])
		}
		if !bytes.Equal(f.Bytes(), bytes.Repeat([]byte{'f'}, mem.PageSize)) {
			t.Error("the write reached the frame")
		}
		borrowed := []mem.Addr{page(0), page(1)}
		if allocs := testing.AllocsPerRun(20, func() { tool.DumpPages(p, borrowed) }); allocs > 1 {
			t.Errorf("dumping %d borrowing pages allocates %.0f times, want 1 (records)", len(borrowed), allocs)
		}
	})
	s.Run()
}

// TestRestoredHogPagesStayIsolated dumps the pages a page hog borrows,
// restores them and writes every restored page: the image's records,
// the source's pages and the hog's frames keep their bytes, and the
// destination reads its writes over the restored bytes.
func TestRestoredHogPagesStayIsolated(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	tool, _ := newTool(s)
	p := task.New(s, "app")
	h := task.PageHog{Base: 0x40000, Pages: 6, Hot: 2, Zero: 2, Interval: 100 * time.Microsecond}
	stop, err := h.Start(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Go("test", func() {
		defer stop()
		s.Sleep(h.Interval / 2) // the hog has written its first epoch
		img := tool.Dump(p, true)
		if len(img.Pages) != h.Pages {
			t.Fatalf("dumped %d pages, want %d", len(img.Pages), h.Pages)
		}
		var frames []mem.Frame // what each source page borrows
		var want [][]byte      // and the bytes it holds
		for i, rec := range img.Pages {
			f, ok := p.AS.BorrowedFrame(rec.Addr)
			if !ok || rec.Data != f {
				t.Fatalf("page %d: the record does not point at the hog's frame", i)
			}
			frames, want = append(frames, f), append(want, bytes.Clone(f.Bytes()))
		}
		r := tool.BeginRestore(p)
		if err := r.PartialRestore(img); err != nil {
			t.Fatal(err)
		}
		if err := r.Finalize(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, mem.PageSize)
		for i, rec := range img.Pages {
			if err := r.AS.Write(rec.Addr+100, []byte("written at the destination")); err != nil {
				t.Fatal(err)
			}
			if err := r.AS.Read(rec.Addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:100], want[i][:100]) || string(got[100:126]) != "written at the destination" {
				t.Errorf("page %d: the destination does not read its write over the restored bytes", i)
			}
		}
		for i, rec := range img.Pages {
			p.AS.ReadPageInto(rec.Addr, got)
			switch {
			case !bytes.Equal(rec.Data.Bytes(), want[i]):
				t.Errorf("page %d: a write at the destination reached the image record", i)
			case !bytes.Equal(got, want[i]):
				t.Errorf("page %d: a write at the destination reached the source page", i)
			case !bytes.Equal(frames[i].Bytes(), want[i]):
				t.Errorf("page %d: a write at the destination reached the hog's frame", i)
			}
		}
	})
	s.Run()
}
