package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/core"
)

// Table4Row is one verb of the Table 4 virtualization-overhead study.
//
// The paper samples CPU cycles per verb invocation on the testbed and
// finds the native data path costs 92–143 cycles while MigrRDMA adds
// 4.6–8.3 cycles (3–9%). Our library is Go, not C, so a direct
// cycle-count comparison would measure Go codegen, not the design. The
// honest equivalent is Go-vs-Go: measure the native Go post path (WQE
// copy + ring write + CQE read — work both libraries perform) and the
// extra instructions MigrRDMA interposes (the table translations), and
// report the relative overhead. For reference the added cost is also
// converted to cycles against the paper's native baselines.
type Table4Row struct {
	Op string
	// GoBaseNS is the measured Go-native per-op data-path cost.
	GoBaseNS float64
	// AddedNS is the measured cost of the interposed translations.
	AddedNS float64
	// OverheadPct is AddedNS / GoBaseNS — the Table 4 "extra overhead
	// in the data path".
	OverheadPct float64

	// PaperBaseCycles and AddedCycles give the secondary, cross-language
	// comparison against the paper's native cycle counts.
	PaperBaseCycles  float64
	AddedCycles      float64
	PaperOverheadPct float64
}

// String renders a table row.
func (r Table4Row) String() string {
	return fmt.Sprintf("%-6s go-base=%6.1f ns  added=%5.2f ns  overhead=%5.1f%%   (vs paper base %5.1f cyc: +%4.1f cyc = %4.1f%%)",
		r.Op, r.GoBaseNS, r.AddedNS, r.OverheadPct,
		r.PaperBaseCycles, r.AddedCycles, r.PaperOverheadPct)
}

// clampPos floors benchmark noise at a twentieth of a nanosecond.
func clampPos(v float64) float64 {
	if v < 0.05 {
		return 0.05
	}
	return v
}

// table4CPUGHz converts ns→cycles for the secondary comparison (the
// testbed's E5-2698 v3 runs at 2.3–3 GHz; the paper itself assumes
// "2–3 GHz typical cloud servers").
const table4CPUGHz = 2.5

// paperBaselines are Table 4's "w/o virtualization" cycle counts.
var paperBaselines = map[string]float64{
	"send":  92.4,
	"recv":  94.9,
	"write": 104.1,
	"read":  143.3,
}

// table4Batch calls of a probe that costs nanoseconds make one timed
// batch (2–20 ms), and every probe is timed table4Rounds times.
const (
	table4Batch  = 1 << 20
	table4Rounds = 24
)

// measureNS returns the cost of one call of each probe, in nanoseconds,
// timing batch calls at a time; it is the package's one host-time
// measurer. Table 4 subtracts these from each other to get differences
// of a few nanoseconds, and on a shared machine a neighbour's time slice
// lands in whichever probe happens to be running: one long mean per
// probe, taken seconds apart, turns load into "added cost". So the
// probes take turns in short batches and each reports its fastest batch.
// Interference only ever adds time, so the minimum estimates the
// undisturbed cost, while a real per-call cost — an allocation, a list
// walk — is in every batch.
func measureNS(batch int, probes ...func()) []float64 {
	best := make([]float64, len(probes))
	for r := 0; r < table4Rounds; r++ {
		for i, f := range probes {
			start := time.Now()
			for n := 0; n < batch; n++ {
				f()
			}
			if ns := float64(time.Since(start)) / float64(batch); r == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// Table4 benchmarks the guest library's data-path interposition and
// reports per-verb overhead.
func Table4() []Table4Row {
	probe := core.NewTranslationProbe()
	ns := measureNS(table4Batch,
		// Go-native baseline work shared by both libraries: building the
		// WQE (the WR copy), writing it into the queue ring, and reading
		// the CQE back.
		probe.CopySendBaseline, probe.CopyRecvBaseline, probe.CopyCQEBaseline, probe.WQEWriteBaseline,
		// MigrRDMA's additions: the allocation-free translation pass on
		// the request side (a plain library hands the WR to the device
		// untouched) plus the completion-path QPN translation. Each
		// Translate* probe copies the WR once (the post path's own
		// parameter copy, which a plain library performs too) and then
		// translates in place; subtracting the copy baselines leaves only
		// MigrRDMA's added instructions.
		probe.TranslateCQE, probe.TranslateSend, probe.TranslateRecv, probe.TranslateWrite, probe.TranslateRead,
	)
	sendCopy, recvCopy, cqeCopy, wqe := ns[0], ns[1], ns[2], ns[3]
	goBase := map[string]float64{
		"send":  sendCopy + wqe + cqeCopy,
		"recv":  recvCopy + wqe + cqeCopy,
		"write": sendCopy + wqe + cqeCopy,
		"read":  sendCopy + wqe + cqeCopy,
	}
	cqe := clampPos(ns[4] - cqeCopy)
	added := map[string]float64{
		"send":  clampPos(ns[5]-sendCopy) + cqe,
		"recv":  clampPos(ns[6]-recvCopy) + cqe,
		"write": clampPos(ns[7]-sendCopy) + cqe,
		"read":  clampPos(ns[8]-sendCopy) + cqe,
	}
	var rows []Table4Row
	for _, op := range []string{"send", "recv", "write", "read"} {
		ns := added[op]
		cyc := ns * table4CPUGHz
		rows = append(rows, Table4Row{
			Op:               op,
			GoBaseNS:         goBase[op],
			AddedNS:          ns,
			OverheadPct:      100 * ns / goBase[op],
			PaperBaseCycles:  paperBaselines[op],
			AddedCycles:      cyc,
			PaperOverheadPct: 100 * cyc / paperBaselines[op],
		})
	}
	return rows
}
