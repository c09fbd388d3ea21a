package experiments

import (
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

// medianRows is the package's one sweep. It runs run(cell, rep) for
// every cell × replica as an independent job on a pool of workers and
// returns, per cell, the replica row that is the median in less order.
// A sweep over several axes numbers its cells row-major, the last axis
// fastest. Every row function names its own point in its errors; the
// first error in job order is returned, and no rows with it.
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
		if reps > 1 {
			sort.Slice(cell, func(a, b int) bool { return less(cell[a], cell[b]) })
		}
		out = append(out, cell[(reps-1)/2])
	}
	return out, nil
}

// sweep is medianRows at one replica per cell on one worker: the cells
// in order, each run once, and no order needed to take a median in.
func sweep[R any](cells int, run func(cell int) (R, error)) ([]R, error) {
	return medianRows(cells, 1, 1, func(cell, _ int) (R, error) { return run(cell) }, nil)
}

// Fig4aParallel is the Fig. 4(a) sweep fanned out over a worker pool:
// every (QP count, replica) pair runs as an independent job, and each
// QP point reports its median-by-WBS replica row.
func Fig4aParallel(qps []int, reps, workers int) ([]Fig4Row, error) {
	return medianRows(len(qps), reps, workers, func(p, rep int) (Fig4Row, error) {
		return Fig4Seeded(qps[p], 4096, 1, Fig4SeedFor(rep))
	}, func(a, b Fig4Row) bool { return a.WBS < b.WBS })
}

// CutoverComparisonCount is CutoverComparison with count replicas per
// (mode, size, qps) cell run across a worker pool; each cell reports
// its median-by-p99 replica row. count=1 reproduces the sequential
// comparison's rows.
func CutoverComparisonCount(sizes, qpCounts []int, messages, count, workers int) ([]CutoverRow, error) {
	modes := []runc.CutoverMode{runc.CutoverGoBackN, runc.CutoverPlugForward}
	return medianRows(len(sizes)*len(qpCounts)*len(modes), count, workers, func(i, rep int) (CutoverRow, error) {
		return RunCutoverSeeded(modes[i%2], sizes[i/2/len(qpCounts)], qpCounts[i/2%len(qpCounts)], messages, CutoverSeedFor(rep))
	}, func(a, b CutoverRow) bool { return a.P99 < b.P99 })
}
