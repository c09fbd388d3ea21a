package chaos

import (
	"fmt"
	"time"

	"migrrdma/internal/experiments"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
	"migrrdma/internal/tenant"
)

// workload is the traffic of a run as the runner drives it. The two
// implementations are the perftest pairs and the tenant service.
type workload interface {
	// start launches the containers, before the scheduler runs, and
	// returns the ones that migrate, in submission order.
	start() []*mover
	// ready blocks the driver proc until traffic flows.
	ready()
	// onStage runs on a migration's driver proc at every stage change.
	onStage(stage string)
	// quiesce stops the traffic and lets its tail land (driver proc).
	quiesce()
	// totals reports client-side and server-side completed operations.
	totals() (completed, received int64)
}

// mover is one migrating container.
type mover struct {
	cont *runc.Container
	dst  string // empty: placed by the orchestrator
	// pair and spec are the perftest pair the container belongs to (nil
	// and zero for the tenant service).
	pair *experiments.Pair
	spec Pair
	// atSwitch is the pair's client completion count when the migration
	// reached "done" or "aborted"; post-migration progress is measured
	// against it.
	atSwitch int64
}

// pairWorkload runs the scenario's perftest pairs through the
// experiments rig, which names hosts' daemons, perftest endpoints and
// containers the way every figure does.
type pairWorkload struct {
	r     *run
	pairs []*experiments.Pair
}

func (w *pairWorkload) start() []*mover {
	var movers []*mover
	// Endless order-checked SEND traffic, paced so a run stays light.
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2,
		Messages: 0, CheckOrder: true, PostGap: 50 * time.Microsecond,
		RecvDepth: w.r.sc.Workload.RecvDepth,
	}
	for _, spec := range w.r.sc.Workload.Pairs {
		var p *experiments.Pair
		if spec.Name == "" {
			p = w.r.rig.StartPair(spec.Client, spec.Server, opts)
		} else {
			p = w.r.rig.StartPairNamed(spec.Client, spec.Server, "cli"+spec.Name, "srv"+spec.Name, opts)
		}
		w.pairs = append(w.pairs, p)
		cont := p.ClientCont
		if spec.Moves == Server {
			cont = p.ServerCont
		}
		movers = append(movers, &mover{cont: cont, dst: spec.Dst, pair: p, spec: spec})
	}
	return movers
}

func (w *pairWorkload) ready() {
	for _, p := range w.pairs {
		p.Client.WaitReady()
	}
}

func (w *pairWorkload) onStage(string) {}

func (w *pairWorkload) quiesce() {
	for _, p := range w.pairs {
		p.Client.Stop()
		p.Client.Wait()
	}
	w.r.rig.CL.Sched.Sleep(settle) // last deliveries reach the servers
	for _, p := range w.pairs {
		p.Server.Stop()
	}
}

func (w *pairWorkload) totals() (completed, received int64) {
	for _, p := range w.pairs {
		completed += p.Client.Stats.Completed
		received += p.Server.Stats.Completed
	}
	return completed, received
}

// pageHog is the chaos memhog: the deterministic page writer attached
// to the migrated process so pipelined runs always exercise every
// elision path — hot pages that genuinely change, zero scratch pages,
// and constant-content rewrites (dirty-bit false positives). Sized
// small to keep ledger volume down; it runs until the process exits.
var pageHog = task.PageHog{
	Base: 0x5300_0000_0000, Pages: 32, Hot: 4, Zero: 4,
	Interval: 100 * time.Microsecond,
}

// tenantOpts is the fixed deployment shape of a tenant chaos run.
// Small enough to keep a run light, wide enough that every lane
// carries several tenants (Sessions > Lanes) and credit admission
// actually bites (Credits < ops per burst).
func tenantOpts() tenant.Options {
	return tenant.Options{
		Sessions: 12, Lanes: 3, LaneDepth: 8,
		Credits: 8, RefillAmount: 4, RefillEvery: 50 * time.Microsecond,
		PerTenantMetrics: true,
	}
}

// Tenant churn parameters: sessions opened during the checkpoint
// window, probes issued during resume, sessions closed after cutover.
const (
	tenantChurnOpens  = 3
	tenantChurnProbes = 4
	tenantChurnCloses = 2
	tenantBurst       = 24 // data ops per session per burst (3× Credits)
)

// tenantWorkload is the multi-tenant tier's traffic: a service
// container carrying many tenant sessions migrates src → dst while the
// tenancy control plane itself churns — sessions open mid-checkpoint,
// cross-tenant probes land during resume, sessions close right after
// cutover. The gateway host is "gw"; there is no perftest partner.
type tenantWorkload struct {
	r   *run
	svc *tenant.Service
	gw  *tenant.Gateway
}

func (w *tenantWorkload) start() []*mover {
	var svcCont *runc.Container
	w.svc, w.gw, svcCont = w.r.rig.StartTenant("src", "gw", tenantOpts())
	return []*mover{{cont: svcCont, dst: "dst"}}
}

func (w *tenantWorkload) ready() {
	w.gw.WaitReady()
	w.gw.SubmitAll(tenantBurst)
}

// onStage is the tenant-phase churn: the control plane keeps admitting
// and probing while the data plane checkpoints. The handshakes block on
// OOB round trips, so they run on their own procs.
func (w *tenantWorkload) onStage(stage string) {
	sched, rec, gw := w.r.rig.CL.Sched, w.r.rec, w.gw
	switch stage {
	case "predump":
		sched.Go("tenant-churn-open", func() {
			first, err := gw.OpenMore(tenantChurnOpens)
			if err != nil {
				w.r.setupErrs = append(w.r.setupErrs, "mid-migration open: "+err.Error())
				return
			}
			rec.add(metrics.Event{Kind: "tenant-open", Seq: uint64(first), Note: stage})
			for i := 0; i < tenantChurnOpens; i++ {
				gw.Submit(first+i, tenantBurst/2)
			}
		})
	case "resume":
		sched.Go("tenant-churn-probe", func() {
			rec.add(metrics.Event{Kind: "tenant-probe", Note: stage})
			for i := 0; i < tenantChurnProbes; i++ {
				gw.Probe(i, (i+1)%tenantOpts().Sessions)
			}
		})
	}
}

func (w *tenantWorkload) quiesce() {
	w.gw.Drain()
	// Post-cutover churn: close drained sessions on the migrated
	// service; their table entries moved with the container.
	for i := 0; i < tenantChurnCloses; i++ {
		if err := w.gw.CloseSession(i); err != nil {
			w.r.setupErrs = append(w.r.setupErrs, fmt.Sprintf("post-cutover close %d: %v", i, err))
		}
	}
	w.r.rec.add(metrics.Event{Kind: "tenant-close", Seq: tenantChurnCloses})
	w.gw.Stop()
	w.gw.Wait()
	w.svc.Stop()
}

// totals counts gateway-acknowledged data operations and the
// service-side acks (the two must agree).
func (w *tenantWorkload) totals() (completed, received int64) {
	return w.gw.Stats.AckedOK, w.svc.Stats.Acked
}
