package experiments

import (
	"fmt"
	"strconv"
	"time"

	"migrrdma/internal/migmgr"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// ConcurrentRow is one migration of the concurrent-drain benchmark.
type ConcurrentRow struct {
	Mig       string
	Src, Dst  string
	QueueWait time.Duration

	ServiceBlackout time.Duration
	CommBlackout    time.Duration
	Total           time.Duration
}

// String renders a table row.
func (r ConcurrentRow) String() string {
	return fmt.Sprintf("%-4s %s->%s  queue=%-10v blackout=%-10v comm=%-10v total=%v",
		r.Mig, r.Src, r.Dst,
		r.QueueWait.Round(time.Microsecond),
		r.ServiceBlackout.Round(time.Microsecond),
		r.CommBlackout.Round(time.Microsecond),
		r.Total.Round(time.Microsecond))
}

// ConcurrentResult is the outcome of one ConcurrentMigrations run.
type ConcurrentResult struct {
	K, Cap int
	Rows   []ConcurrentRow
	// WireBytes is the aggregate fabric transmit volume attributable to
	// the run (post-warmup delta across all NICs).
	WireBytes int64
	// Elapsed is submission of the first job to completion of the last.
	Elapsed time.Duration
}

// String renders the result.
func (cr *ConcurrentResult) String() string {
	s := fmt.Sprintf("K=%d cap=%d  elapsed=%v wire=%d B\n", cr.K, cr.Cap,
		cr.Elapsed.Round(time.Microsecond), cr.WireBytes)
	for _, r := range cr.Rows {
		s += "  " + r.String() + "\n"
	}
	return s
}

// ConcurrentMigrations drains K client containers concurrently under
// the given admission cap. The topology is a ring of K hosts n0..n{K-1}
// plus a partner host p: client i lives on n_i, its server on p, and it
// migrates to n_{(i+1)%K} — so under cap >= 2 every ring node acts as a
// migration source and a migration destination simultaneously, and p
// partners all K migrations at once. The per-migration blackout should
// stay flat-ish in K while aggregate wire volume and total drain time
// grow with it.
func ConcurrentMigrations(k, cap int) (_ *ConcurrentResult, err error) {
	defer wrapErr(&err, "concurrent k=%d cap=%d", k, cap)
	if k < 2 {
		return nil, fmt.Errorf("need k >= 2")
	}
	names := make([]string, k, k+1)
	for i := range names {
		names[i] = "n" + strconv.Itoa(i)
	}
	names = append(names, "p")
	r := NewRig(17, names...)
	defer r.Close()
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2, Messages: 0,
		CheckOrder: true, PostGap: 60 * time.Microsecond,
	}
	pairs := make([]*Pair, k)
	for i := 0; i < k; i++ {
		pairs[i] = r.StartPairNamed(names[i], "p",
			"cli"+strconv.Itoa(i), "srv"+strconv.Itoa(i), opts)
	}

	mgr := migmgr.New(r.CL, r.Daemons, cap)
	res := &ConcurrentResult{K: k, Cap: cap}
	err = r.Run(Horizon, func() error {
		for _, p := range pairs {
			p.Client.WaitReady()
		}
		r.CL.Sched.Sleep(settle)
		before := r.CL.Metrics.Sum("rnic", "tx_bytes")
		start := r.CL.Sched.Now()
		for i := 0; i < k; i++ {
			if _, err := mgr.Submit(migmgr.Spec{
				C:    pairs[i].ClientCont,
				Dst:  names[(i+1)%k],
				Opts: runc.DefaultMigrateOptions(),
			}); err != nil {
				return err
			}
		}
		mgr.WaitAll()
		res.Elapsed = r.CL.Sched.Now() - start
		// Drain a little, then stop the workload.
		r.CL.Sched.Sleep(2 * time.Millisecond)
		for _, p := range pairs {
			p.Stop()
		}
		res.WireBytes = r.CL.Metrics.Sum("rnic", "tx_bytes") - before
		for _, j := range mgr.Jobs() {
			if j.Err != nil {
				return fmt.Errorf("%s %s->%s: %w", j.ID, j.Src, j.Spec.Dst, j.Err)
			}
			res.Rows = append(res.Rows, ConcurrentRow{
				Mig: j.ID, Src: j.Src, Dst: j.Spec.Dst, QueueWait: j.QueueWait(),
				ServiceBlackout: j.Report.ServiceBlackout,
				CommBlackout:    j.Report.CommBlackout,
				Total:           j.Report.Total,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range pairs {
		if errs := p.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("pair %d: %d workload errors, first %s", i, len(errs), errs[0])
		}
	}
	return res, nil
}
