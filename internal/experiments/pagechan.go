package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/runc"
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

// pageHog is the writer of the transfer and tenancy experiments.
var pageHog = task.PageHog{
	Base: 0x5400_0000_0000, Pages: 192, Hot: 24, Zero: 24,
	Interval: 200 * time.Microsecond,
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

	// PagesTransferred counts the page records dumped per round, elided
	// ones included (a page dumped in two rounds counts twice), not the
	// pages shipped; DistinctPages the unique pages; PagesElided the
	// pages whose content stayed off the wire entirely.
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

// pagechanSeed is the seed the comparison runs at. The rig draws no
// fault, so the rows do not depend on it.
const pagechanSeed = 83

// RunPageChanSeeded live-migrates a latency-mode SEND server carrying
// the page-hog working set, under the given transfer mode.
func RunPageChanSeeded(mode runc.TransferMode, msgSize, qps, messages int, seed int64) (row PageChanRow, err error) {
	defer wrapErr(&err, "pagechan %s msg=%d qps=%d seed=%d", mode, msgSize, qps, seed)
	mopts := runc.DefaultMigrateOptions()
	mopts.Transfer = mode
	err = migrateLatencyServer(seed, msgSize, qps, messages, mopts, true, func(_ *Rig, pair *Pair, rep *runc.Report) {
		row = PageChanRow{
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
		}
	})
	return row, err
}

// PageChanComparison sweeps both transfer modes over the given message
// sizes (the Fig. 4a points). Rows come out grouped by size with the
// monolithic row directly before its pipelined counterpart.
func PageChanComparison(sizes []int, qps, messages int) ([]PageChanRow, error) {
	modes := []runc.TransferMode{runc.TransferMonolithic, runc.TransferPipelined}
	return sweep(len(sizes)*len(modes), func(i int) (PageChanRow, error) {
		return RunPageChanSeeded(modes[i%2], sizes[i/2], qps, messages, pagechanSeed)
	})
}
