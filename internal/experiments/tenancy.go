package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
	"migrrdma/internal/tenant"
)

// This file is the tenancy experiment: live-migrate a service
// container carrying thousands of multiplexed tenant sessions
// (internal/tenant) through both cutover modes, and sweep the session
// count to measure how consolidation scales — the blackout, the RDMA
// state replay time and the transferred image pages as functions of
// how many tenants ride in one container. The point the sweep exists
// to make: tenant sessions are service-process state, not verbs
// resources, so migration cost grows with the shared lane/ring
// footprint (constant) and the process image (linear but tiny), not
// with the tenant count × per-QP restore cost a naive
// one-QP-per-tenant deployment would pay.

// TenancyRow is one (sessions, cutover mode) measurement.
type TenancyRow struct {
	Sessions int
	Mode     runc.CutoverMode
	// Transfer is the page-transfer mode the migration ran under
	// (monolithic unless a transfer-mode variant set it).
	Transfer runc.TransferMode

	// Blackout is the migration's service blackout; ReplayRDMA the
	// RDMA-state restore (replay) time; Total the whole migration.
	Blackout   time.Duration
	ReplayRDMA time.Duration
	Total      time.Duration
	// Pages is the container image size transferred (memory footprint
	// proxy); WireBytes the cluster-wide rnic tx total; FinalWire the
	// stop-and-copy round's migration-channel bytes (the blackout's
	// transfer share).
	Pages     int
	WireBytes int64
	FinalWire int64

	// Acked counts tenant data operations acknowledged end-to-end;
	// DrainAfter is how long the post-cutover burst took to drain.
	Acked      int64
	DrainAfter time.Duration
}

// String renders one row.
func (r TenancyRow) String() string {
	return fmt.Sprintf("%-12s sessions=%-5d blackout=%-9v replay=%-9v total=%-9v pages=%-6d acked=%-6d drain=%-9v",
		r.Mode, r.Sessions, r.Blackout.Round(time.Microsecond), r.ReplayRDMA.Round(time.Microsecond),
		r.Total.Round(time.Microsecond), r.Pages, r.Acked, r.DrainAfter.Round(time.Microsecond))
}

// tenancySeed is the seed the sweep runs at. The rig draws no fault, so
// the rows do not depend on it.
const tenancySeed = 71

// tenancyBurst is the data operations per session per burst; one burst
// is in flight when the migration starts, a second drains after it.
const tenancyBurst = 2

// RunTenancySeeded live-migrates a service container carrying the
// given number of live tenant sessions, with a burst in flight at
// cutover, and audits the per-tenant exactly-once ledger afterwards.
func RunTenancySeeded(mode runc.CutoverMode, sessions int, seed int64) (TenancyRow, error) {
	return runTenancy(mode, runc.TransferMonolithic, sessions, seed, false)
}

// RunTenancyTransferSeeded is RunTenancySeeded with an explicit
// transfer mode: the 2000-session consolidation point under the
// pipelined channel is the scale datapoint (the fixed benchmark's
// tenancy-2000 workload). Unlike RunTenancySeeded, the service carries
// the page-hog writer so session state churns while the migration
// streams — the tenant bursts alone leave the memory image static by
// the time pre-copy starts, which would make the transfer mode
// unobservable.
func RunTenancyTransferSeeded(mode runc.CutoverMode, transfer runc.TransferMode, sessions int, seed int64) (TenancyRow, error) {
	return runTenancy(mode, transfer, sessions, seed, true)
}

// runTenancy is the body of both: hog attaches the page-hog writer to
// the service.
func runTenancy(mode runc.CutoverMode, transfer runc.TransferMode, sessions int, seed int64, hog bool) (_ TenancyRow, err error) {
	defer wrapErr(&err, "tenancy %s/%s sessions=%d seed=%d", mode, transfer, sessions, seed)
	cfg := cluster.FastCheckpointTestbed(seed)
	// rnr_retry=7 semantics, as in the cutover comparison: requests in
	// flight at freeze must retry through the blackout, not error out.
	cfg.NIC.MaxRetries = rnic.UnlimitedRetries
	r := NewRigCfg(cfg, "src", "dst", "gw")
	defer r.Close()
	opts := tenant.Options{
		Sessions: sessions, Lanes: 8, LaneDepth: 64,
		Credits: 16, RefillAmount: 16, RefillEvery: 20 * time.Microsecond,
	}
	svc, gw, svcCont := r.StartTenant("src", "gw", opts)
	stopHog := func() {}
	if hog {
		if stopHog, err = pageHog.Start(svcCont.Procs[0]); err != nil {
			return TenancyRow{}, err
		}
	}

	mopts := runc.DefaultMigrateOptions()
	mopts.Cutover = mode
	mopts.Transfer = transfer
	sched := r.CL.Sched
	var (
		rep        *runc.Report
		drainAfter time.Duration
	)
	err = r.Run(Horizon, func() (err error) {
		gw.WaitReady()
		// One burst in flight when the checkpoint hits.
		gw.SubmitAll(tenancyBurst)
		sched.Sleep(settle)
		if rep, err = r.Migrate(svcCont, "src", "dst", mopts); err != nil {
			return err
		}
		// A second burst proves every session resumed on the destination.
		start := sched.Now()
		gw.SubmitAll(tenancyBurst)
		gw.Drain()
		drainAfter = sched.Now() - start
		stopHog()
		gw.Stop()
		gw.Wait()
		svc.Stop()
		return nil
	})
	if err != nil {
		return TenancyRow{}, err
	}
	if v := gw.CheckInvariants(); len(v) != 0 {
		return TenancyRow{}, fmt.Errorf("%d invariant violations: %s", len(v), v[0])
	}
	if want := int64(sessions * 2 * tenancyBurst); gw.Stats.AckedOK != want {
		return TenancyRow{}, fmt.Errorf("%d ops acked, want %d", gw.Stats.AckedOK, want)
	}
	return TenancyRow{
		Sessions: sessions, Mode: mode, Transfer: transfer,
		Blackout:   rep.ServiceBlackout,
		ReplayRDMA: rep.RestoreRDMA,
		Total:      rep.Total,
		Pages:      rep.PagesTransferred,
		WireBytes:  r.CL.Metrics.Sum("rnic", "tx_bytes"),
		FinalWire:  rep.FinalWireBytes,
		Acked:      gw.Stats.AckedOK,
		DrainAfter: drainAfter,
	}, nil
}

// StartTenant launches a tenant service "svc" in container "svc-cont"
// on svcNode and, once the service listens, its gateway "gw" in
// container "gw-cont" on gwNode. The service container is the one that
// migrates.
func (r *Rig) StartTenant(svcNode, gwNode string, opts tenant.Options) (*tenant.Service, *tenant.Gateway, *runc.Container) {
	svc := tenant.NewService(r.CL.Sched, "svc", opts)
	gw := tenant.NewGateway(r.CL.Sched, "gw", opts, tenant.Target{Node: svcNode, Name: "svc"})
	svcCont := runc.NewContainer(r.CL.Host(svcNode), "svc-cont")
	svcCont.Start(func(tp *task.Process) { svc.Run(tp, r.Daemons[svcNode]) })
	gwCont := runc.NewContainer(r.CL.Host(gwNode), "gw-cont")
	r.CL.Sched.Go("tenant-start-gw", func() {
		svc.WaitReady()
		gwCont.Start(func(tp *task.Process) { gw.Run(tp, r.Daemons[gwNode]) })
	})
	return svc, gw, svcCont
}

// TenancySweep runs the scaling sweep: every session count × both
// cutover modes, grouped by count with go-back-N first.
func TenancySweep(sessionCounts []int) ([]TenancyRow, error) {
	modes := []runc.CutoverMode{runc.CutoverGoBackN, runc.CutoverPlugForward}
	return sweep(len(sessionCounts)*len(modes), func(i int) (TenancyRow, error) {
		return RunTenancySeeded(modes[i%2], sessionCounts[i/2], tenancySeed)
	})
}
