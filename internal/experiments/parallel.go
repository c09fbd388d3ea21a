package experiments

import (
	"fmt"
	"sort"

	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
)

// This file parallelizes the embarrassingly-parallel sweeps: every
// (sweep point, replica seed) pair is one self-contained simulation —
// its own scheduler, fabric, hosts — so a worker pool can run them
// concurrently and must reproduce the sequential rows exactly (the
// pool only changes wall-clock, never which jobs run or at what seed).
// Replicas exist because a single seed's p99/WBS is one sample of a
// discrete event pattern; the median across derived seeds is the
// stable statistic the benchmarks report.

// replicaSeed returns replica rep's seed for an experiment anchored at
// base: replica 0 is the canonical seed (so one replica reproduces the
// recorded rows) and later replicas are splitmix64 derivations of it.
func replicaSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	return sim.DeriveSeed(base, rep)
}

// Fig4SeedFor returns replica rep's seed for the Fig. 4 sweeps.
func Fig4SeedFor(rep int) int64 { return replicaSeed(fig4BaseSeed, rep) }

// CutoverSeedFor returns replica rep's seed for the cutover comparison.
func CutoverSeedFor(rep int) int64 { return replicaSeed(cutoverSeed, rep) }

// medianRows runs run(cell, rep) for every cell × replica as an
// independent job on a pool of workers and returns, per cell, the
// replica row that is the median in less order. One replica on one
// worker is the sequential sweep. run wraps its own errors; the first
// in job order is returned.
func medianRows[R any](cells, reps, workers int, run func(cell, rep int) (R, error), less func(a, b R) bool) ([]R, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]R, cells*reps)
	errs := make([]error, len(rows))
	sim.RunIndexed(len(rows), workers, func(i int) {
		rows[i], errs[i] = run(i/reps, i%reps)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]R, 0, cells)
	for c := 0; c < cells; c++ {
		cell := rows[c*reps : (c+1)*reps]
		sort.Slice(cell, func(a, b int) bool { return less(cell[a], cell[b]) })
		out = append(out, cell[(reps-1)/2])
	}
	return out, nil
}

// Fig4aParallel is the Fig. 4(a) sweep fanned out over a worker pool:
// every (QP count, replica) pair runs as an independent job, and each
// QP point reports its median-by-WBS replica row. reps=1, workers=1
// reproduces Fig4a exactly.
func Fig4aParallel(qps []int, reps, workers int) ([]Fig4Row, error) {
	return medianRows(len(qps), reps, workers, func(p, rep int) (Fig4Row, error) {
		row, err := Fig4Seeded(qps[p], 4096, 1, Fig4SeedFor(rep))
		if err != nil {
			err = fmt.Errorf("fig4a n=%d rep=%d: %w", qps[p], rep, err)
		}
		return row, err
	}, func(a, b Fig4Row) bool { return a.WBS < b.WBS })
}

// CutoverComparisonCount is CutoverComparison with count replicas per
// (mode, size, qps) cell run across a worker pool; each cell reports
// its median-by-p99 replica row. count=1 reproduces the sequential
// comparison's rows.
func CutoverComparisonCount(sizes, qpCounts []int, messages, count, workers int) ([]CutoverRow, error) {
	type cell struct {
		mode    runc.CutoverMode
		sz, qps int
	}
	var cells []cell
	for _, sz := range sizes {
		for _, qps := range qpCounts {
			for _, mode := range []runc.CutoverMode{runc.CutoverGoBackN, runc.CutoverPlugForward} {
				cells = append(cells, cell{mode, sz, qps})
			}
		}
	}
	return medianRows(len(cells), count, workers, func(i, rep int) (CutoverRow, error) {
		c := cells[i]
		row, err := RunCutoverSeeded(c.mode, c.sz, c.qps, messages, CutoverSeedFor(rep))
		if err != nil {
			err = fmt.Errorf("%v msg=%d qps=%d rep=%d: %w", c.mode, c.sz, c.qps, rep, err)
		}
		return row, err
	}, func(a, b CutoverRow) bool { return a.P99 < b.P99 })
}
