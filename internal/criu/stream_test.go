package criu

import (
	"bytes"
	"testing"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// Restore-path coverage for the image edge cases the page channel can
// produce — diffs landing after a claimed VMA was filled early, images
// whose pages are all zero, malformed memory tables with overlapping
// records — plus the dump and apply primitives (BeginDump/DumpPages/
// ApplyChunk/Finalize) the channel is built on.

// TestApplyDiffAfterPartialRestoreIntoClaimedVMA: the plugin claims a
// VMA at its original address (restorePagesInto fills it from the full
// image), the rest partially restores to temp, and then a pre-copy
// diff touches pages in BOTH regions. The diff must land at the
// original address for the claimed VMA and at the temp address for the
// other, and finalization must surface both updates.
func TestApplyDiffAfterPartialRestoreIntoClaimedVMA(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, mem.PageSize, "mr-buffer")
		src.AS.Map(0x20000, mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("mr-v1"))
		src.AS.Write(0x20000, []byte("heap-v1"))
		img := tool.Dump(src, true)

		r := tool.BeginRestore(src)
		if err := r.MapAtOriginal(img, img.VMAs[0]); err != nil {
			t.Fatal(err)
		}
		if err := r.PartialRestore(img); err != nil {
			t.Fatal(err)
		}
		// Source keeps running: both VMAs dirty again.
		src.AS.Write(0x10000, []byte("mr-v2"))
		src.AS.Write(0x20000, []byte("heap-v2"))
		diff := tool.Dump(src, false)
		if len(diff.Pages) != 2 {
			t.Fatalf("diff has %d pages, want 2", len(diff.Pages))
		}
		r.ApplyChunk(diff, diff.Pages, nil)

		// The claimed VMA is already at its original address: the diff
		// must be visible there before finalize.
		got := make([]byte, 5)
		if err := r.AS.Read(0x10000, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "mr-v2" {
			t.Errorf("claimed VMA after diff: %q, want mr-v2", got)
		}
		if err := r.Finalize(); err != nil {
			t.Fatal(err)
		}
		got = make([]byte, 7)
		if err := r.AS.Read(0x20000, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "heap-v2" {
			t.Errorf("temp VMA after finalize: %q, want heap-v2", got)
		}
	})
	s.Run()
}

// TestZeroPageImageRestores: a page that held content at pre-dump and
// was zeroed before the final diff must restore as zeros, not as the
// stale pre-dump bytes.
func TestZeroPageImageRestores(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("secret"))
		img := tool.Dump(src, true)
		r := tool.BeginRestore(src)
		if err := r.PartialRestore(img); err != nil {
			t.Fatal(err)
		}
		zeros := make([]byte, mem.PageSize)
		src.AS.Write(0x10000, zeros)
		diff := tool.Dump(src, false)
		if len(diff.Pages) != 1 || !mem.AllZero(diff.Pages[0].Data.Bytes()) {
			t.Fatalf("diff should carry one all-zero page, got %d pages", len(diff.Pages))
		}
		r.ApplyChunk(diff, diff.Pages, nil)
		if err := r.Finalize(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, mem.PageSize)
		if err := r.AS.Read(0x10000, got); err != nil {
			t.Fatal(err)
		}
		if !mem.AllZero(got) {
			t.Errorf("zeroed page restored with stale content %q", got[:6])
		}
	})
	s.Run()
}

// TestOverlappingVMARecords: duplicate records for the same VMA are
// tolerated (temp-mapped once, pages applied once), while genuinely
// overlapping distinct records fail at finalize with an error instead
// of silently corrupting the first VMA's remapped content.
func TestOverlappingVMARecords(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("dup"))
		img := tool.Dump(src, true)

		// Duplicate record, same start: dedup on the temp table.
		img.VMAs = append(img.VMAs, img.VMAs[0])
		r := tool.BeginRestore(src)
		if err := r.PartialRestore(img); err != nil {
			t.Fatalf("duplicate record rejected: %v", err)
		}
		if err := r.Finalize(); err != nil {
			t.Fatalf("duplicate record broke finalize: %v", err)
		}
		got := make([]byte, 3)
		r.AS.Read(0x10000, got)
		if string(got) != "dup" {
			t.Errorf("content after duplicate-record restore: %q", got)
		}

		// Overlapping distinct records: a second record claims a range
		// straddling the first. The remap collision must surface as an
		// error, not corruption.
		img2 := &Image{Proc: "src", VMAs: []VMARec{
			{Start: 0x30000, Len: 2 * mem.PageSize, Name: "a"},
			{Start: 0x30000 + mem.PageSize, Len: 2 * mem.PageSize, Name: "b"},
		}}
		r2 := tool.BeginRestore(src)
		if err := r2.PartialRestore(img2); err != nil {
			t.Fatalf("partial restore of overlapping records: %v", err)
		}
		if err := r2.Finalize(); err == nil {
			t.Error("finalize of overlapping VMA records succeeded; want remap collision error")
		}
	})
	s.Run()
}

// TestBeginDumpMatchesDump: the chunked dump selects exactly the pages
// a monolithic Dump would ship (device VMAs excluded, dirty tracking
// reset) and BeginDump+DumpPages pays the same total simulated cost.
func TestBeginDumpMatchesDump(t *testing.T) {
	build := func(p *task.Process) {
		p.AS.Map(0x10000, 8*mem.PageSize, "heap")
		p.AS.MapDevice(0x90000, mem.PageSize, "on-chip")
		p.AS.Write(0x10000, []byte("a"))
		p.AS.Write(0x10000+3*mem.PageSize, []byte("b"))
		p.AS.Write(0x90000, []byte("dev"))
	}

	s := sim.New(1)
	tool, _ := newTool(s)
	var monoPages []PageRec
	var monoCost time.Duration
	s.Go("mono", func() {
		p := task.New(s, "p")
		build(p)
		t0 := s.Now()
		img := tool.Dump(p, true)
		monoCost = s.Now() - t0
		monoPages = img.Pages
		if n := len(p.AS.DirtyPages()); n != 0 {
			t.Errorf("mono dump left %d dirty pages", n)
		}
	})
	s.Run()

	s2 := sim.New(1)
	tool2, _ := newTool(s2)
	s2.Go("chunked", func() {
		p := task.New(s2, "p")
		build(p)
		t0 := s2.Now()
		img, addrs := tool2.BeginDump(p, true)
		var recs []PageRec
		for off := 0; off < len(addrs); off += 1 { // one-page batches: worst case
			recs = append(recs, tool2.DumpPages(p, addrs[off:off+1])...)
		}
		cost := s2.Now() - t0
		if n := len(p.AS.DirtyPages()); n != 0 {
			t.Errorf("chunked dump left %d dirty pages", n)
		}
		if len(recs) != len(monoPages) {
			t.Fatalf("chunked dump read %d pages, mono %d", len(recs), len(monoPages))
		}
		for i := range recs {
			if recs[i].Addr != monoPages[i].Addr || !bytes.Equal(recs[i].Data.Bytes(), monoPages[i].Data.Bytes()) {
				t.Errorf("page %d differs: %#x vs %#x", i, uint64(recs[i].Addr), uint64(monoPages[i].Addr))
			}
		}
		for _, a := range addrs {
			if a >= 0x90000 && a < 0x90000+mem.PageSize {
				t.Error("device page selected by BeginDump")
			}
		}
		if cost != monoCost {
			t.Errorf("chunked dump cost %v, monolithic %v", cost, monoCost)
		}
		if len(img.VMAs) != 2 {
			t.Errorf("memory table has %d records, want 2", len(img.VMAs))
		}
	})
	s2.Run()
}

// TestApplyChunkTranslatesAndZeroFills: chunks apply at temp addresses
// before finalize, zero pages fill from the shared zero page, and
// Finalize remaps them to the original addresses.
func TestApplyChunkTranslatesAndZeroFills(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	src := task.New(s, "src")
	s.Go("test", func() {
		src.AS.Map(0x10000, 2*mem.PageSize, "heap")
		src.AS.Write(0x10000, []byte("seed"))
		img := tool.Dump(src, true)
		r := tool.BeginRestore(src)
		if err := r.PartialRestore(img); err != nil {
			t.Fatal(err)
		}
		// Stream a chunk: one content page, one header-only zero page.
		pg := make([]byte, mem.PageSize)
		copy(pg, "chunked")
		r.ApplyChunk(img, []PageRec{{Addr: 0x10000, Data: mem.FrameOf(pg)}}, []mem.Addr{0x10000 + mem.PageSize})

		// Before finalize the original address must still be unmapped
		// (content lives at temp).
		if r.AS.Mapped(0x10000, 1) {
			t.Error("chunk applied at the original address before finalize")
		}
		if err := r.Finalize(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 7)
		if err := r.AS.Read(0x10000, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "chunked" {
			t.Errorf("streamed page after finalize: %q", got)
		}
		z := make([]byte, mem.PageSize)
		if err := r.AS.Read(0x10000+mem.PageSize, z); err != nil {
			t.Fatal(err)
		}
		if !mem.AllZero(z) {
			t.Error("zero page not zero-filled")
		}
	})
	s.Run()
}

// TestFinalizeRefusesAbandoned: an abandoned restore can never be
// finalized.
func TestFinalizeRefusesAbandoned(t *testing.T) {
	s := sim.New(1)
	tool, _ := newTool(s)
	p := task.New(s, "p")
	s.Go("test", func() {
		r := tool.BeginRestore(p)
		r.Abandon()
		if err := r.Finalize(); err == nil {
			t.Error("Finalize of abandoned restore succeeded")
		}
	})
	s.Run()
}
