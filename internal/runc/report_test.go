package runc

import (
	"strings"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/criu"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/task"
)

func TestReportBlackoutSum(t *testing.T) {
	r := &Report{
		DumpRDMA:    1 * time.Millisecond,
		DumpOthers:  2 * time.Millisecond,
		Transfer:    3 * time.Millisecond,
		RestoreRDMA: 4 * time.Millisecond,
		FullRestore: 5 * time.Millisecond,
	}
	if r.Blackout() != 15*time.Millisecond {
		t.Fatalf("blackout = %v", r.Blackout())
	}
	s := r.String()
	for _, want := range []string{"DumpRDMA=1ms", "RestoreRDMA=4ms", "blackout=15ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestContainerLifecycle(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 1}, "h")
	c := NewContainer(cl.Host("h"), "box")
	ran := map[string]bool{}
	c.Start(func(p *task.Process) { ran["init"] = true })
	c.Exec("worker", func(p *task.Process) { ran["worker"] = true })
	cl.Sched.RunFor(time.Second)
	if !ran["init"] || !ran["worker"] {
		t.Fatalf("procs ran: %v", ran)
	}
	if len(c.Procs) != 2 {
		t.Fatalf("container holds %d procs", len(c.Procs))
	}
	if c.Procs[0].Name != "box/init" || c.Procs[1].Name != "box/worker" {
		t.Fatalf("proc names: %s, %s", c.Procs[0].Name, c.Procs[1].Name)
	}
}

func TestExecBeforeStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cl := cluster.New(cluster.Config{Seed: 1}, "h")
	NewContainer(cl.Host("h"), "box").Exec("w", nil)
}

func TestMigrateNonRDMAContainer(t *testing.T) {
	// A container without an RDMA session still migrates: memory-only
	// checkpoint/restore with freeze and thaw.
	tb := newTestbed(t, "src", "dst")
	cont := NewContainer(tb.cl.Host("src"), "plain")
	steps := 0
	cont.Start(func(p *task.Process) {
		p.AS.Map(0x100000, 1<<20, "heap")
		for i := 0; i < 2000; i++ {
			p.AS.WriteU64(0x100000, uint64(i))
			p.Compute(100 * time.Microsecond)
			steps++
		}
	})
	var rep *Report
	var mErr error
	tb.cl.Sched.Go("migrate", func() {
		tb.cl.Sched.Sleep(20 * time.Millisecond)
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"), Plug: core.NewPlugin(tb.daemons["src"], tb.daemons["dst"]), Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
	})
	tb.cl.Sched.RunFor(5 * time.Minute)
	if mErr != nil {
		t.Fatalf("migration: %v", mErr)
	}
	if rep.DumpRDMA != 0 || rep.RestoreRDMA != 0 {
		t.Fatal("RDMA phases reported for a non-RDMA container")
	}
	if steps != 2000 {
		t.Fatalf("app completed %d steps", steps)
	}
	// The app's memory state travelled: last written value visible.
	v, _ := cont.Procs[0].AS.ReadU64(0x100000)
	if v != 1999 {
		t.Fatalf("memory state after migration: %d", v)
	}
}

// TestMonolithicBlackoutIsTheSequentialSum pins Fig. 3's attribution in
// closed form: a monolithic migration's final round is one chunk, so
// DumpOthers is the whole dump (fixed cost, mapping walk, every page
// read), Transfer the chunk's and the image header's wire time, and
// FullRestore the apply, the remaps and the thaw — each from the criu
// cost model and the host's own TransferTo, nothing overlapped and
// nothing unaccounted for.
func TestMonolithicBlackoutIsTheSequentialSum(t *testing.T) {
	const populated, dirty = 40, 12
	const base = mem.Addr(0x100000)
	tb := newTestbed(t, "src", "dst")
	src, sched := tb.cl.Host("src"), tb.cl.Sched
	cont := NewContainer(src, "plain")
	chunkBytes := func(n int) int { return 64 + n*(mem.PageSize+16) }
	const hdrBytes = 256 + 64 // one VMA, no plugin blob

	var rep *Report
	var mErr error
	var wireFinal time.Duration
	sched.Go("drive", func() {
		p := cont.Start(nil)
		if _, err := p.AS.Map(base, populated*mem.PageSize, "heap"); err != nil {
			t.Errorf("map heap: %v", err)
			return
		}
		touch := func(n int) {
			for i := 0; i < n; i++ {
				_ = p.AS.Write(base+mem.Addr(i*mem.PageSize), []byte{byte(i + 1)})
			}
		}
		touch(populated)
		// The reference wire times, on the idle link the migration uses.
		t0 := sched.Now()
		src.TransferTo("dst", chunkBytes(dirty))
		src.TransferTo("dst", hdrBytes)
		wireFinal = sched.Now() - t0

		// Dirty pages once pre-copy is over, so the final round has
		// exactly these to ship.
		tb.cl.Metrics.Listen(func(e metrics.Event) error {
			if e.Kind == "stage" && e.Note == "suspend-wbs" {
				touch(dirty)
			}
			return nil
		})
		m := &Migrator{C: cont, Dst: tb.cl.Host("dst"), Opts: DefaultMigrateOptions()}
		rep, mErr = m.Migrate()
	})
	sched.RunFor(time.Minute)
	if mErr != nil || rep == nil {
		t.Fatalf("migration: %v (report %v)", mErr, rep)
	}
	c := src.CRIU.Config()
	walk := criu.DumpPerVMA // pow(1 VMA, exponent) = 1
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"DumpOthers", rep.DumpOthers, c.DumpBase + walk + dirty*criu.DumpPerPage},
		{"Transfer", rep.Transfer, wireFinal},
		{"FullRestore", rep.FullRestore, dirty*criu.RestPerPage + criu.RemapLat + c.ThawLat},
		{"ServiceBlackout", rep.ServiceBlackout, c.FreezeLat + rep.Blackout()},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	final := int64(chunkBytes(dirty) + hdrBytes)
	if rep.FinalWireBytes != final {
		t.Errorf("FinalWireBytes = %d, want chunk + header = %d", rep.FinalWireBytes, final)
	}
	if want := int64(chunkBytes(populated)+hdrBytes) + final; rep.WireBytes != want {
		t.Errorf("WireBytes = %d, want predump + final = %d", rep.WireBytes, want)
	}
	if rep.PreCopyIterations != 0 || rep.PagesTransferred != populated+dirty || rep.PagesElided != 0 {
		t.Errorf("iterations=%d pages=%d elided=%d, want 0/%d/0",
			rep.PreCopyIterations, rep.PagesTransferred, rep.PagesElided, populated+dirty)
	}
}
