package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/experiments"
	"migrrdma/internal/metrics"
	"migrrdma/internal/orchestrator"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// Run timing constants. Warmup is exported so scenarios can place
// absolute-time faults relative to the start of steady-state traffic.
const (
	Warmup = 2 * time.Millisecond
	settle = 5 * time.Millisecond
	// horizon bounds a run that hangs; a healthy run ends as soon as the
	// driver has everything the checkers read. It is also the instant
	// the scheduler leaves the clock at, so the final metrics snapshot —
	// and with it every telemetry golden — is dated by it.
	horizon = 1 * time.Second
	// drainSLO is the drain scenarios' blackout SLO: generous against
	// the fast-checkpoint calibration so only a genuine stall breaches it.
	drainSLO = 200 * time.Millisecond
)

// errInjected is the fault an Abort plants inside the workflow.
var errInjected = errors.New("chaos: injected fault")

// run is the state of one execution, shared by the runner's stages and
// the workload.
type run struct {
	sc  Scenario
	rig *experiments.Rig
	rec *recorder
	inj *injector
	w   workload
	// movers maps a migration's ID to its container. An orchestrated
	// run's attempt events fill jobs (executor job ID → migration ID)
	// and bound (migration ID → the job of its latest attempt).
	movers      map[string]*mover
	jobs, bound map[string]string
	// orch drives an orchestrated run's migrations (nil under Direct).
	orch *orchestrator.Orchestrator
	// aborter is the mover the scenario's Abort targets; predumps counts
	// its attempts ("predump" opens every one), round names the page
	// channel round its current stage streams, and sends counts that
	// round's chunk sends so far.
	aborter  *mover
	predumps int
	round    string
	sends    int
	// setupErrs collects workload set-up and churn failures.
	setupErrs []string
}

// Evidence is what a Checker may read: the scenario as declared, the
// report so far (totals, outcomes, final metrics snapshot), the event
// ledger, the workload's end state and the per-host residue census.
// Checkers never reach into the live rig.
type Evidence struct {
	Scenario Scenario
	Report   *Report

	ledger []metrics.Event
	// movers[i] is the container Report.Migrations[i] moved.
	movers []*mover
	// bound maps an orchestrated migration's ID to the executor job its
	// last attempt ran as.
	bound  map[string]string
	tenant *tenantWorkload
	census []hostResidue
	racks  map[string]int // host → rack
	// What closing the rig left behind: procs the scheduler still counts
	// as blocked, and goroutines above the count taken before the rig was
	// built (0 when another run shared the process, see runsStarted).
	liveProcs, goroutines int
}

// runsStarted and runsInFlight count the Runs of this process.
// Goroutines are counted process-wide, so a run can only answer for
// them when none was in flight as it began and none began before it
// counted; a sweep on several workers still checks the runs that happen
// to have the process to themselves.
var runsStarted, runsInFlight atomic.Int64

// Run executes one scenario at one seed and returns its report. It is
// deterministic: the same (seed, scenario) always yields byte-identical
// Behaviour and Telemetry hashes.
func Run(seed int64, sc Scenario) *Report {
	cfg := cluster.FastCheckpointTestbed(seed)
	cfg.Fabric.Topology = sc.Rig.Topology
	if sc.Rig.UnlimitedRetries {
		cfg.NIC.MaxRetries = rnic.UnlimitedRetries
	}
	started := runsStarted.Add(1)
	alone := runsInFlight.Add(1) == 1
	defer runsInFlight.Add(-1)
	baseline := runtime.NumGoroutine()
	rig := experiments.NewRigCfg(cfg, sc.Rig.Hosts...)
	defer rig.Close()
	cl, sched := rig.CL, rig.CL.Sched
	r := &run{sc: sc, rig: rig, rec: &recorder{sched: sched},
		movers: make(map[string]*mover), jobs: make(map[string]string), bound: make(map[string]string)}
	r.inj = &injector{sched: sched, net: cl.Net, rec: r.rec}
	cl.Metrics.Listen(r.listen)
	if sc.Rig.WBSTimeout > 0 {
		for _, n := range cl.Names() {
			rig.Daemons[n].SetWBSTimeout(sc.Rig.WBSTimeout)
		}
	}
	if sc.Workload.Tenant {
		r.w = &tenantWorkload{r: r}
	} else {
		r.w = &pairWorkload{r: r}
	}
	movers := r.w.start()
	r.aborter = movers[0]
	migrate, fill := r.plan(movers)

	// The run ends when the driver returns: everything the checkers read
	// is fixed by then (experiments.Rig.Run).
	var mid string
	hung := rig.Run(horizon, func() error {
		r.w.ready()
		if sc.Workload.PageHog {
			if _, err := pageHog.Start(movers[0].cont.Procs[0]); err != nil {
				r.setupErrs = append(r.setupErrs, fmt.Sprintf("memhog setup failed: %v", err))
			}
		}
		sched.Sleep(Warmup)
		for _, f := range sc.Faults {
			if f.Phase != "" {
				continue
			}
			d := f.At - sched.Now()
			if d < 0 {
				d = 0
			}
			sched.AfterFunc(d, func() { r.inj.arm(f) })
		}
		migrate()
		// Mid-run telemetry checkpoint: the registry right after the
		// last migration finished.
		mid = cl.Metrics.Snapshot().Hash()
		sched.Sleep(settle)
		r.inj.clearAll()
		// Post-fault settle: retransmission timers recover anything the
		// tail of a fault window clipped; a rolled-back service resumes
		// traffic between the original endpoints.
		sched.Sleep(settle)
		r.w.quiesce()
		return nil
	})

	rep := &Report{Seed: seed, Scenario: sc.Name}
	moved := fill(rep)
	rep.Completed, rep.ServerRecv = r.w.totals()
	// Fabric fault totals come from the metrics registry, not the
	// network's internal counters.
	snap := cl.Metrics.Snapshot()
	rep.Metrics = snap
	rep.Dropped = snap.Sum("fabric", "dropped_frames")
	rep.Duplicated = snap.Sum("fabric", "duplicated_frames")
	rep.Reordered = snap.Sum("fabric", "reordered_frames")
	rep.FaultsArmed = r.inj.activations
	rep.Events = len(r.rec.events)
	rep.Behaviour = r.rec.hash()
	tele := sha256.Sum256([]byte(mid + "\n" + snap.Hash()))
	rep.Telemetry = hex.EncodeToString(tele[:])

	if hung != nil {
		// Liveness: the driver (migrations + settle + quiesce) must finish
		// inside the horizon. Nothing else means anything if it did not.
		rep.Violations = []string{hung.Error()}
		for _, o := range rep.Migrations {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s: last stage %q after %d attempts", o.ID, o.FinalStage, o.Attempts))
		}
	} else {
		ev := &Evidence{Scenario: sc, Report: rep, ledger: r.rec.events, movers: moved,
			bound: r.bound, census: takeCensus(rig, r.orch), racks: make(map[string]int)}
		// The census reads the hosts as the run left them; only then are
		// the parked procs unwound, and whatever survives that counted.
		rig.Close()
		ev.liveProcs = sched.LiveBlocked()
		if n := runtime.NumGoroutine(); alone && runsStarted.Load() == started && n > baseline {
			ev.goroutines = n - baseline
		}
		ev.tenant, _ = r.w.(*tenantWorkload)
		for _, n := range cl.Names() {
			ev.racks[n] = cl.Host(n).Rack
		}
		rep.Violations = append(rep.Violations, r.setupErrs...)
		for _, c := range append(commonCheckers, sc.Checkers...) {
			rep.Violations = append(rep.Violations, c.Check(ev)...)
		}
	}
	if !rep.OK() {
		rep.Timeline = r.rec.timeline()
	}
	return rep
}

// listen is the run's one listener on the cluster's event stream. It
// drives the run on stage events, binds an orchestrated attempt to its
// migration, and keeps an event on the ledger only if its kind is one
// of the declared set below: an emitter of a new kind moves no hash.
func (r *run) listen(e metrics.Event) error {
	switch e.Kind {
	case "stage":
		return r.onStage(e.Mig, e.Note)
	case "attempt":
		r.jobs[e.Note], r.bound[e.Mig] = e.Mig, e.Note
	case "cqe", "ack", "exp", "dereg", "rkey", "plug", "pchan": // the ledger's kinds
		r.rec.events = append(r.rec.events, e)
		if e.Kind == "pchan" {
			return r.onChunk(e.Mig, e.Note)
		}
	}
	return nil
}

// mover resolves a runc migration ID, which an orchestrated run maps to
// its own migration's through the attempt events, to its mover.
func (r *run) mover(id string) (string, *mover) {
	if mig, ok := r.jobs[id]; ok {
		id = mig
	}
	return id, r.movers[id]
}

// streams maps a workflow stage to the page-channel round it streams.
var streams = map[string]string{"predump": "predump", "precopy": "precopy", "transfer": "final"}

// onStage handles the stage events of every migration in a run: it
// records the stage, pins the mover's atSwitch, arms the phase-anchored
// faults, lets the workload churn and, last, decides the scenario's
// abort: only the first mover aborts, and with Retry only on its first
// attempt. It runs on the migration's driver proc. id is the runc
// migration ID, which an orchestrated run resolves to its own
// migration's through the attempt events.
func (r *run) onStage(id, stage string) error {
	id, mv := r.mover(id)
	note := stage
	if r.sc.Migrate.Via != Direct {
		note = id + ":" + stage
	}
	r.rec.add(metrics.Event{Kind: "stage", Note: note})
	if (stage == "done" || stage == "aborted") && mv.pair != nil {
		mv.atSwitch = mv.pair.Client.Stats.Completed
	}
	for _, f := range r.sc.Faults {
		if f.Phase == stage && (f.Mig == "" || f.Mig == id) {
			r.inj.arm(f)
		}
	}
	r.w.onStage(stage)
	if mv != r.aborter {
		return nil
	}
	if stage == "predump" {
		r.predumps++
	}
	r.round = streams[stage]
	if a := r.sc.Abort; stage == a.Phase && r.firstTry() {
		return errInjected
	}
	return nil
}

// onChunk decides the scenario's mid-stream abort: it counts the
// aborter's chunk sends from each round's opening event on and refuses
// the Abort.Chunk-th send of the round Abort.Round names.
func (r *run) onChunk(id, note string) error {
	if _, mv := r.mover(id); mv != r.aborter {
		return nil
	}
	switch note {
	case "round":
		r.sends = 0
	case "send":
		r.sends++
		if a := r.sc.Abort; r.round == a.Round && r.sends == a.Chunk && r.firstTry() {
			return errInjected
		}
	}
	return nil
}

// firstTry reports whether the aborter may still fail: always, unless
// the Abort grants a retry, which only its first attempt fails.
func (r *run) firstTry() bool { return !r.sc.Abort.Retry || r.predumps == 1 }

// plan builds the scenario's migration driver before the scheduler
// runs. migrate blocks the driver proc until every migration finished
// or failed; fill writes the outcomes into the report, returns the
// mover behind each, and is valid at any time afterwards (a hung run
// reports the stage each migration is stuck in).
func (r *run) plan(movers []*mover) (migrate func(), fill func(*Report) []*mover) {
	cl, daemons := r.rig.CL, r.rig.Daemons
	opts := runc.DefaultMigrateOptions()
	opts.Cutover, opts.Transfer, opts.ChunkPages = r.sc.Migrate.Cutover, r.sc.Migrate.Transfer, r.sc.Migrate.ChunkPages
	if r.sc.Migrate.Via == Direct {
		mv := movers[0]
		src := mv.cont.Host.Name
		m := &runc.Migrator{
			ID: "m0", C: mv.cont, Dst: cl.Host(mv.dst),
			Plug: core.NewPlugin(daemons[src], daemons[mv.dst]),
			Opts: opts,
		}
		r.movers[m.ID] = mv
		o := Outcome{ID: m.ID, Src: src, Dst: mv.dst}
		migrate = func() {
			o.Started = cl.Sched.Now()
			o.Report, o.Err = m.Migrate()
			o.Finished, o.Attempts = cl.Sched.Now(), 1
		}
		fill = func(rep *Report) []*mover {
			o.Host, o.FinalStage = mv.cont.Host.Name, m.Stage
			rep.Migrations = []Outcome{o}
			return movers[:1]
		}
		return migrate, fill
	}
	// Orchestrated: one drain lists every mover that names its
	// destination; the rest come from evacuating rack 0.
	r.orch = orchestrator.New(orchestrator.Config{
		CL: cl, Daemons: daemons, Opts: opts,
	})
	drain := &orchestrator.Drain{BlackoutSLO: drainSLO, MaxParallel: r.sc.Migrate.Cap}
	if r.sc.Abort.Retry {
		drain.Retries = 1
	}
	byCont := make(map[*runc.Container]*mover)
	for _, mv := range movers {
		r.orch.Register(mv.cont)
		byCont[mv.cont] = mv
		if mv.dst == "" {
			drain.Selector = func(h *cluster.Host) bool { return h.Rack == 0 }
		} else {
			drain.Migrations = append(drain.Migrations, &orchestrator.Migration{C: mv.cont, Dst: mv.dst})
		}
	}
	var d *orchestrator.Drain
	migrate = func() {
		d = r.orch.Submit(drain)
		// The drain's procs run once this one waits.
		for _, m := range d.Migrations {
			r.movers[m.ID] = byCont[m.C]
		}
		d.Wait()
	}
	fill = func(rep *Report) (moved []*mover) {
		if d == nil {
			return nil
		}
		for _, m := range d.Migrations {
			moved = append(moved, byCont[m.C])
			rep.Migrations = append(rep.Migrations, Outcome{ID: m.ID, Src: m.Src, Dst: m.Dst,
				Host: m.C.Host.Name, FinalStage: m.State().String(), Attempts: m.Attempts,
				Started: m.Started, Finished: m.Finished, Report: m.Report, Err: m.Err,
				Blackout: m.Blackout, SLOMet: m.SLOMet})
		}
		return moved
	}
	return migrate, fill
}
