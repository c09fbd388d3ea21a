package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/mem"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// This file is the transfer-pipeline comparison: the same server-side
// live migration under an identical latency-mode SEND workload, once
// with the page channel's monolithic preset (dump, then send, then
// apply) and once with its pipelined multi-stream one. The contrast the experiment
// exists to show: overlapping dump/wire/apply plus zero-page and
// duplicate-content elision shrinks the stop-and-copy wire volume (and
// with it the blackout's transfer share), and the adaptive convergence
// controller stops iterating as soon as extra rounds stop paying.

// PageHog is the deterministic writer that gives a migrated service a
// realistic page mix: of Pages pages at Base, the first Hot change
// every epoch, the next Zero are zero scratch pages, and the rest are
// constant-content rewrites the dirty-bit tracker flags but the
// content-hash table elides. Every Interval it rewrites them all.
type PageHog struct {
	Base             mem.Addr
	Pages, Hot, Zero int
	Interval         time.Duration
}

// pageHog is the writer of the transfer and tenancy experiments.
var pageHog = PageHog{
	Base: 0x5400_0000_0000, Pages: 192, Hot: 24, Zero: 24,
	Interval: 200 * time.Microsecond,
}

// The hog's pages are read off tables built once, so that a workload
// made to show mem, criu and pagechan does not spend its time computing
// the bytes it writes: byte j of hot page i at epoch e is byte(e+i+j),
// which is hogRamp from (e+i) mod 256 on; cold page i is all byte(i).
var (
	hogRamp [mem.PageSize + 256]byte
	hogZero [mem.PageSize]byte
	hogCold [256][mem.PageSize]byte
)

func init() {
	for k := range hogRamp {
		hogRamp[k] = byte(k)
	}
	for v := range hogCold {
		for j := range hogCold[v] {
			hogCold[v][j] = byte(v)
		}
	}
}

// page returns the content of page i at the given epoch. The slice is
// shared and read-only.
func (h PageHog) page(epoch, i int) []byte {
	switch {
	case i < h.Hot:
		return hogRamp[(epoch+i)&255:][:mem.PageSize]
	case i < h.Hot+h.Zero:
		return hogZero[:]
	default:
		return hogCold[i&255][:]
	}
}

// Start maps the hog's region on p and attaches the writer until the
// process exits or the returned stop function is called (so the writer
// never pins the event queue past the end of the measured run), pausing
// while frozen.
func (h PageHog) Start(sched *sim.Scheduler, p *task.Process) (stop func(), err error) {
	if _, err := p.AS.Map(h.Base, uint64(h.Pages)*mem.PageSize, "appstate"); err != nil {
		return nil, err
	}
	stopped := false
	sched.Go("page-hog", func() {
		for epoch := 1; !p.Exited() && !stopped; epoch++ {
			if !p.Frozen() {
				for i := 0; i < h.Pages; i++ {
					a := h.Base + mem.Addr(i*mem.PageSize)
					if err := p.AS.Write(a, h.page(epoch, i)); err != nil {
						return // unmapped mid-teardown
					}
				}
			}
			sched.Sleep(h.Interval)
		}
	})
	return func() { stopped = true }, nil
}

// PageChanRow is one (transfer mode, message size) measurement.
type PageChanRow struct {
	Transfer runc.TransferMode
	MsgSize  int

	Samples  int
	P50      time.Duration
	P99      time.Duration
	Blackout time.Duration
	Total    time.Duration

	// PagesTransferred counts per-round page shipments (re-sends
	// included); DistinctPages the unique pages; PagesElided the pages
	// whose content stayed off the wire entirely.
	PagesTransferred int
	DistinctPages    int
	PagesElided      int
	// WireBytes is the migration channel's total image/chunk volume;
	// FinalWireBytes the stop-and-copy round alone (the blackout's
	// transfer share).
	WireBytes      int64
	FinalWireBytes int64
	// Rounds is the number of rounds the page channel carried: predump,
	// the pre-copy iterations, final.
	Rounds int
}

// String renders one row.
func (r PageChanRow) String() string {
	return fmt.Sprintf("%-12s msg=%-6d ops=%-5d p50=%-9v p99=%-9v blackout=%-9v pages=%-5d distinct=%-5d elided=%-5d wire=%-9d finalwire=%-8d rounds=%d",
		r.Transfer, r.MsgSize, r.Samples,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Blackout.Round(time.Microsecond),
		r.PagesTransferred, r.DistinctPages, r.PagesElided,
		r.WireBytes, r.FinalWireBytes, r.Rounds)
}

// pagechanSeed fixes the comparison's determinism.
const pagechanSeed = 83

// PageChanSeedFor returns replica rep's seed, anchored at the
// canonical pagechanSeed the same way as the other replicated
// experiments.
func PageChanSeedFor(rep int) int64 { return replicaSeed(pagechanSeed, rep) }

// RunPageChan measures one transfer configuration at the canonical seed.
func RunPageChan(mode runc.TransferMode, msgSize, qps, messages int) (PageChanRow, error) {
	return RunPageChanSeeded(mode, msgSize, qps, messages, pagechanSeed)
}

// RunPageChanSeeded live-migrates a latency-mode SEND server carrying
// the page-hog working set, under the given transfer mode.
func RunPageChanSeeded(mode runc.TransferMode, msgSize, qps, messages int, seed int64) (_ PageChanRow, err error) {
	defer wrapErr(&err, "pagechan %s msg=%d qps=%d seed=%d", mode, msgSize, qps, seed)
	cfg := cluster.FastCheckpointTestbed(seed)
	cfg.NIC.MaxRetries = 1 << 20
	r := NewRigCfg(cfg, "src", "dst", "partner")
	defer r.Close()
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: msgSize, NumQPs: qps, Messages: messages,
		LatencyMode: true, PostGap: 250 * time.Microsecond, RecvDepth: 64,
	}
	// The SERVER migrates src → dst mid-stream, carrying the page hog.
	pair := r.StartPair("partner", "src", opts)
	stopHog, err := pageHog.Start(r.CL.Sched, pair.ServerCont.Procs[0])
	if err != nil {
		return PageChanRow{}, err
	}
	mopts := runc.DefaultMigrateOptions()
	mopts.Transfer = mode
	var rep *runc.Report
	err = r.Run(Horizon, func() (err error) {
		pair.Client.WaitReady()
		r.CL.Sched.Sleep(2 * time.Millisecond)
		if rep, err = r.Migrate(pair.ServerCont, "src", "dst", mopts); err != nil {
			return err
		}
		pair.Client.Wait()
		stopHog()
		pair.Server.Stop()
		return nil
	})
	if err != nil {
		return PageChanRow{}, err
	}
	if errs := pair.Errors(); len(errs) > 0 {
		return PageChanRow{}, fmt.Errorf("%d workload errors, first %s", len(errs), errs[0])
	}
	return PageChanRow{
		Transfer: mode, MsgSize: msgSize,
		Samples:          len(pair.Client.Stats.LatSamples),
		P50:              pair.Client.Stats.LatPercentile(50),
		P99:              pair.Client.Stats.LatPercentile(99),
		Blackout:         rep.ServiceBlackout,
		Total:            rep.Total,
		PagesTransferred: rep.PagesTransferred,
		DistinctPages:    rep.DistinctPages,
		PagesElided:      rep.PagesElided,
		WireBytes:        rep.WireBytes,
		FinalWireBytes:   rep.FinalWireBytes,
		Rounds:           len(rep.Rounds),
	}, nil
}

// PageChanComparison sweeps both transfer modes over the given message
// sizes (the Fig. 4a points). Rows come out grouped by size with the
// monolithic row directly before its pipelined counterpart.
func PageChanComparison(sizes []int, qps, messages int) ([]PageChanRow, error) {
	modes := []runc.TransferMode{runc.TransferMonolithic, runc.TransferPipelined}
	return sweep(len(sizes)*len(modes), func(i int) (PageChanRow, error) {
		return RunPageChan(modes[i%2], sizes[i/2], qps, messages)
	})
}
