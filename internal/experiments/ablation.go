package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/migros"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
)

// This file contains the ablation studies of DESIGN.md §4 that no figure
// already measures, each design choice compared against its
// alternative, and §6's MigrOS comparison.

// --- Key-table ablation: dense array (MigrRDMA) vs move-to-front
// linked list (LubeRDMA, §6) ---------------------------------------------------

// KeyTableRow compares one configuration.
type KeyTableRow struct {
	MRs     int
	Skewed  bool // hot-key access vs uniform round-robin
	ArrayNS float64
	ListNS  float64
}

// String renders a row.
func (r KeyTableRow) String() string {
	pattern := "uniform"
	if r.Skewed {
		pattern = "skewed"
	}
	return fmt.Sprintf("MRs=%-5d %-8s array=%6.1f ns  list=%8.1f ns  (x%.1f)",
		r.MRs, pattern, r.ArrayNS, r.ListNS, r.ListNS/r.ArrayNS)
}

// lubeList is the §6 description of LubeRDMA's translation structure: a
// linked list of (virtual, physical) pairs with move-to-front on hit.
type lubeList struct {
	head *lubeNode
}

type lubeNode struct {
	virt, phys uint32
	next       *lubeNode
}

func (l *lubeList) assign(virt, phys uint32) {
	l.head = &lubeNode{virt: virt, phys: phys, next: l.head}
}

func (l *lubeList) lookup(virt uint32) (uint32, bool) {
	var prev *lubeNode
	for n := l.head; n != nil; n = n.next {
		if n.virt == virt {
			if prev != nil { // move to front
				prev.next = n.next
				n.next = l.head
				l.head = n
			}
			return n.phys, true
		}
		prev = n
	}
	return 0, false
}

// AblationKeyTable measures both structures under uniform and skewed
// access for each MR count.
func AblationKeyTable(mrCounts []int) []KeyTableRow {
	var rows []KeyTableRow
	for _, n := range mrCounts {
		for _, skewed := range []bool{false, true} {
			arr := newDenseArray(n)
			list := &lubeList{}
			for i := 0; i < n; i++ {
				list.assign(uint32(i+1), uint32(i)*0x107+0x2000)
			}
			keys := accessPattern(n, skewed)
			var ai, li int
			// A uniform lookup walks the whole list, about a nanosecond
			// a node: the batch shrinks with the list so that one stays
			// near a millisecond, and never below one pass over the keys.
			ns := measureNS(max(len(keys), table4Batch/n),
				func() { arr.lookup(keys[ai%len(keys)]); ai++ },
				func() { list.lookup(keys[li%len(keys)]); li++ })
			rows = append(rows, KeyTableRow{MRs: n, Skewed: skewed, ArrayNS: ns[0], ListNS: ns[1]})
		}
	}
	return rows
}

// denseArray mirrors core's keyTable for the ablation (the real one is
// internal to the session).
type denseArray struct{ phys []uint32 }

func newDenseArray(n int) *denseArray {
	d := &denseArray{phys: make([]uint32, n)}
	for i := range d.phys {
		d.phys[i] = uint32(i)*0x107 + 0x2000
	}
	return d
}

func (d *denseArray) lookup(virt uint32) (uint32, bool) {
	i := virt - 1
	if i >= uint32(len(d.phys)) {
		return 0, false
	}
	return d.phys[i], true
}

// accessPattern builds the key sequence: uniform round-robin over all
// MRs, or skewed (90% to one hot key — LubeRDMA's best case).
func accessPattern(n int, skewed bool) []uint32 {
	keys := make([]uint32, 1024)
	for i := range keys {
		if skewed && i%10 != 0 {
			keys[i] = 1
		} else {
			keys[i] = uint32(i%n) + 1
		}
	}
	return keys
}

// --- rkey cache on/off (§3.3) ---------------------------------------------------

// RKeyCacheRow compares one-sided op throughput with and without the
// remote-key cache.
type RKeyCacheRow struct {
	Messages    int
	CachedOps   float64 // completed ops/s with the cache
	UncachedOps float64 // completed ops/s fetching every time
	Fetches     int64   // remote fetches with the cache (should be ~1/MR)
}

// String renders the row.
func (r RKeyCacheRow) String() string {
	return fmt.Sprintf("msgs=%-6d cached=%.0f ops/s (fetches=%d)  uncached=%.0f ops/s  speedup=x%.1f",
		r.Messages, r.CachedOps, r.Fetches, r.UncachedOps, r.CachedOps/r.UncachedOps)
}

// AblationRKeyCache runs small WRITE workloads with the cache enabled
// and disabled.
func AblationRKeyCache(messages int) (RKeyCacheRow, error) {
	run := func(disable bool) (float64, int64, error) {
		r := NewRig(29, "a", "b")
		defer r.Close()
		opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 64, QueueDepth: 1, NumQPs: 1, Messages: messages}
		pair := r.StartPair("a", "b", opts)
		var elapsed time.Duration
		err := r.Run(Horizon, func() error {
			pair.Client.WaitReady()
			if disable {
				pair.Client.Sess.DisableRKeyCache = true
				pair.Client.Sess.InvalidateRemoteCaches("b")
			}
			start := r.CL.Sched.Now()
			pair.Client.Wait()
			elapsed = r.CL.Sched.Now() - start
			pair.Server.Stop()
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("rkey ablation (disable=%v): %w", disable, err)
		}
		return float64(messages) / elapsed.Seconds(), pair.Client.Sess.RKeyFetches, nil
	}
	cached, fetches, err := run(false)
	if err != nil {
		return RKeyCacheRow{}, err
	}
	uncached, _, err := run(true)
	if err != nil {
		return RKeyCacheRow{}, err
	}
	return RKeyCacheRow{Messages: messages, CachedOps: cached, UncachedOps: uncached, Fetches: fetches}, nil
}

// --- §6 MigrOS comparison ---------------------------------------------------------

// MigrOSRow compares the systems at one QP count. MigrRDMA's side is
// measured, MigrOS's adds its modelled hardware costs to it.
type MigrOSRow struct {
	QPs      int
	MigrOS   migros.Breakdown
	MigrRDMA migros.Breakdown
}

// String renders the row.
func (r MigrOSRow) String() string {
	gap := float64(r.MigrOS.Total()-r.MigrRDMA.Total()) / float64(r.MigrRDMA.Total()) * 100
	return fmt.Sprintf("QPs=%-5d MigrOS: wait=%v xfer=%v total=%v | MigrRDMA: wait=%v xfer=%v total=%v  gap=%+.1f%%",
		r.QPs,
		r.MigrOS.Wait.Round(time.Microsecond), r.MigrOS.Transfer.Round(time.Microsecond),
		r.MigrOS.Total().Round(time.Microsecond),
		r.MigrRDMA.Wait.Round(time.Microsecond), r.MigrRDMA.Transfer.Round(time.Microsecond),
		r.MigrRDMA.Total().Round(time.Microsecond), gap)
}

// MigrOSCompare runs the §6 comparison over the QP counts: one Fig. 3
// sender migration with pre-setup at each.
func MigrOSCompare(qpCounts []int) ([]MigrOSRow, error) {
	return sweep(len(qpCounts), func(i int) (MigrOSRow, error) {
		r, err := Fig3(qpCounts[i], true, true)
		return migrOSRow(r), err
	})
}

// migrOSRow reads §6's steps off one Fig. 3 migration. Step 1 is the
// suspend-wbs phase, where the source's and the partners'
// wait-before-stop run in parallel: suspension to freeze. Step 2 is
// freeze to thaw, the service blackout, so the two add up to the
// communication blackout. With pre-setup, DumpRDMA and RestoreRDMA are
// off the blackout, so nothing in step 2 is MigrRDMA's alone and MigrOS
// pays all of it too.
func migrOSRow(r Fig3Row) MigrOSRow {
	m := migros.Breakdown{Wait: r.CommBlackout - r.ServiceBlackout, Transfer: r.ServiceBlackout}
	return MigrOSRow{QPs: r.QPs, MigrOS: migros.MigrOS(m, r.QPs), MigrRDMA: m}
}
