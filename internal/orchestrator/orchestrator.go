// Package orchestrator is the datacenter-scale drain control plane
// (ROADMAP item 1): declarative KubeVirt-style objects over the
// per-host migration executors. A Drain request — "move every
// container off the hosts this selector matches, at most MaxParallel
// at a time, each under this blackout SLO" — expands into per-host
// Migration objects with accepted/conflict semantics; LeastLoaded
// placement picks destinations (least-loaded, preferring same-rack
// moves that spare the oversubscribed spine uplinks); and
// aborted migrations — surfaced by the phase engine's rollback — are
// retried with exponential backoff. migmgr is demoted to the per-host
// admission executor beneath this layer: one Manager per source host,
// ID-prefixed so concurrent drains stay distinguishable in daemon
// state, stream events and metric labels.
package orchestrator

import (
	"fmt"
	"strconv"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/metrics"
	"migrrdma/internal/migmgr"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
)

// MigState is a Migration's lifecycle position.
type MigState int

const (
	// Pending: accepted, waiting for a drain slot.
	Pending MigState = iota
	// Running: an attempt is in flight on the source executor.
	Running
	// Done: the container moved and the workload resumed.
	Done
	// Failed: the retry budget is exhausted or no destination exists.
	Failed
	// Conflict: rejected at expansion — the container already has an
	// active Migration under another drain.
	Conflict
)

// String renders the state.
func (s MigState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Conflict:
		return "conflict"
	}
	return "unknown"
}

// Migration is the per-container object a Drain expands into.
type Migration struct {
	// ID is "<drain>/<src>/<container>", e.g. "d1/r0h1/kv-cont".
	ID string
	C  *runc.Container
	// Src is the container's host at expansion time; Dst is filled by
	// the placement policy when the migration starts (the container may
	// land elsewhere on retry if loads shifted).
	Src, Dst string

	state    MigState
	Attempts int
	// Blackout is the service blackout of the successful attempt.
	Blackout time.Duration
	// SLOMet reports Blackout <= the drain's BlackoutSLO (true when no
	// SLO was set).
	SLOMet bool
	// LastErr is the most recent aborted attempt's error, kept even
	// when a retry later succeeds.
	LastErr error
	Err     error
	Report  *runc.Report

	Started, Finished time.Duration
}

// State returns the migration's lifecycle position.
func (m *Migration) State() MigState { return m.state }

// Drain is the declarative rack/host evacuation request.
type Drain struct {
	// Selector matches the hosts to evacuate.
	Selector func(h *cluster.Host) bool
	// BlackoutSLO is the per-migration service-blackout objective;
	// 0 means none. Violations are recorded, not enforced — the
	// operator reads them off the drain report.
	BlackoutSLO time.Duration
	// MaxParallel caps concurrently running migrations of this drain
	// (<= 0 means 1).
	MaxParallel int
	// Retries is the per-migration retry budget on abort (rollback and
	// resubmit with exponential backoff).
	Retries int

	// ID is assigned at submission ("d1", "d2", …).
	ID string
	// Migrations is the expansion, in deterministic host/registration
	// order; includes Conflict rejections.
	Migrations []*Migration

	orch *Orchestrator
	done bool
}

// Accepted counts migrations that were admitted (everything except
// Conflict).
func (d *Drain) Accepted() int {
	n := 0
	for _, m := range d.Migrations {
		if m.state != Conflict {
			n++
		}
	}
	return n
}

// Conflicted counts expansion-time rejections.
func (d *Drain) Conflicted() int { return len(d.Migrations) - d.Accepted() }

// Done reports whether every accepted migration finished.
func (d *Drain) Done() bool { return d.done }

// Wait parks the calling proc until the drain finished.
func (d *Drain) Wait() {
	for !d.done {
		d.orch.changed.Wait()
	}
}

// SLOViolations returns the completed migrations that missed the
// blackout SLO.
func (d *Drain) SLOViolations() []*Migration {
	var out []*Migration
	for _, m := range d.Migrations {
		if m.state == Done && !m.SLOMet {
			out = append(out, m)
		}
	}
	return out
}

// Config parameterises the orchestrator.
type Config struct {
	CL      *cluster.Cluster
	Daemons map[string]*core.Daemon
	// Opts is the migration option template every attempt uses.
	Opts runc.MigrateOptions
	// BackoffBase is the delay before the first retry (0 means 1ms); it
	// doubles per attempt up to maxBackoffFactor times the base.
	BackoffBase time.Duration
}

const (
	// hostCap is each per-host executor's admission cap: a source host
	// checkpoints at most this many containers at once regardless of
	// drain-level parallelism.
	hostCap = 2
	// maxBackoffFactor caps the retry delay at this multiple of
	// Config.BackoffBase.
	maxBackoffFactor = 32
)

// Workload is a registered migratable container.
type Workload struct {
	C          *runc.Container
	ExtraPlugs int
}

// Orchestrator owns the cluster-wide drain state.
type Orchestrator struct {
	cfg     Config
	sched   *sim.Scheduler
	changed *sim.Cond

	// workloads in registration order — the deterministic expansion
	// order within one host.
	workloads []Workload
	// active maps containers to their in-flight accepted Migration; the
	// source of Conflict rejections.
	active map[*runc.Container]*Migration
	// execs are the per-source-host migmgr executors, created lazily.
	execs map[string]*migmgr.Manager
	// incoming counts migrations currently targeting each host — the
	// in-flight half of the placement load score.
	incoming map[string]int
	// draining marks hosts under an unfinished drain; they are never
	// placement candidates.
	draining map[string]int

	nextDrain int
	drains    []*Drain

	mAccepted, mConflicted metrics.Counter
	mDone, mFailed         metrics.Counter
	mRetried, mSLOMissed   metrics.Counter
}

// New builds an orchestrator over the cluster; drain orchestration is
// control-plane work on the cluster scheduler.
func New(cfg Config) *Orchestrator {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = time.Millisecond
	}
	o := &Orchestrator{
		cfg:      cfg,
		sched:    cfg.CL.Sched,
		changed:  sim.NewCond(cfg.CL.Sched, "orchestrator"),
		active:   make(map[*runc.Container]*Migration),
		execs:    make(map[string]*migmgr.Manager),
		incoming: make(map[string]int),
		draining: make(map[string]int),
	}
	if reg := cfg.CL.Metrics; reg != nil {
		b := reg.Block("orchestrator", metrics.Labels{}, 6)
		o.mAccepted = b.Counter("migrations_accepted")
		o.mConflicted = b.Counter("migrations_conflicted")
		o.mDone = b.Counter("migrations_done")
		o.mFailed = b.Counter("migrations_failed")
		o.mRetried = b.Counter("migrations_retried")
		o.mSLOMissed = b.Counter("slo_violations")
	}
	return o
}

// Register adds a migratable workload to the inventory. Drains only
// move registered containers.
func (o *Orchestrator) Register(w Workload) { o.workloads = append(o.workloads, w) }

// Drains returns every submitted drain in submission order.
func (o *Orchestrator) Drains() []*Drain {
	out := make([]*Drain, len(o.drains))
	copy(out, o.drains)
	return out
}

// exec returns (creating if needed) the source host's executor.
func (o *Orchestrator) exec(host string) *migmgr.Manager {
	if m, ok := o.execs[host]; ok {
		return m
	}
	m := migmgr.New(o.cfg.CL, o.cfg.Daemons, hostCap)
	m.IDPrefix = host + "/"
	o.execs[host] = m
	return m
}

// Submit expands a drain into per-container Migrations and launches
// its scheduling loop. Containers already claimed by another drain are
// rejected as Conflict; everything else is accepted. Expansion walks
// hosts in sorted-name order and each host's containers in
// registration order, so the same drain against the same cluster
// always expands identically.
func (o *Orchestrator) Submit(d *Drain) *Drain {
	o.nextDrain++
	d.ID = "d" + strconv.Itoa(o.nextDrain)
	d.orch = o
	if d.MaxParallel <= 0 {
		d.MaxParallel = 1
	}
	for _, host := range o.cfg.CL.Names() {
		if !d.Selector(o.cfg.CL.Host(host)) {
			continue
		}
		o.draining[host]++
		for _, w := range o.workloads {
			if w.C.Host.Name != host {
				continue
			}
			m := &Migration{
				ID:  d.ID + "/" + host + "/" + w.C.Name,
				C:   w.C,
				Src: host,
			}
			if o.active[w.C] != nil {
				m.state = Conflict
				m.Err = migmgr.ErrConflict
				o.mConflicted.Inc()
			} else {
				m.state = Pending
				o.active[w.C] = m
				o.mAccepted.Inc()
			}
			d.Migrations = append(d.Migrations, m)
		}
	}
	o.drains = append(o.drains, d)
	o.sched.Go("orch/"+d.ID, func() { o.run(d) })
	return d
}

// run is the drain scheduling loop: keep up to MaxParallel accepted
// migrations in flight until all finished.
func (o *Orchestrator) run(d *Drain) {
	running := 0
	next := 0
	for {
		for running < d.MaxParallel && next < len(d.Migrations) {
			m := d.Migrations[next]
			next++
			if m.state != Pending {
				continue
			}
			running++
			o.launch(d, m)
		}
		if running == 0 && next >= len(d.Migrations) {
			break
		}
		o.changed.Wait()
		// Count back the in-flight set: launches decrement via state.
		running = 0
		for _, m := range d.Migrations {
			if m.state == Running {
				running++
			}
		}
	}
	for _, host := range o.cfg.CL.Names() {
		if d.Selector(o.cfg.CL.Host(host)) {
			o.draining[host]--
		}
	}
	d.done = true
	o.changed.Broadcast()
}

// launch drives one migration through attempts and backoff on its own
// proc.
func (o *Orchestrator) launch(d *Drain, m *Migration) {
	m.state = Running
	m.Started = o.sched.Now()
	o.sched.Go("orch/"+m.ID, func() {
		defer func() {
			m.Finished = o.sched.Now()
			delete(o.active, m.C)
			o.changed.Broadcast()
		}()
		var w Workload
		for _, cand := range o.workloads {
			if cand.C == m.C {
				w = cand
			}
		}
		for attempt := 0; ; attempt++ {
			src := m.C.Host.Name // re-resolved: a retried container drains from wherever it lives
			dst := o.place(d, src)
			if dst == "" {
				m.state = Failed
				m.Err = fmt.Errorf("orchestrator: %s: no feasible destination", m.ID)
				o.mFailed.Inc()
				return
			}
			m.Src, m.Dst = src, dst
			m.Attempts++
			o.incoming[dst]++
			j, err := o.exec(src).Submit(migmgr.Spec{
				C: m.C, Dst: dst, Opts: o.cfg.Opts, ExtraPlugs: w.ExtraPlugs,
			})
			if err != nil {
				// The orchestrator serializes per container, so an executor
				// conflict is a bookkeeping bug, not an operational state.
				panic("orchestrator: executor rejected " + m.ID + ": " + err.Error())
			}
			// The attempt's stage events carry the job's ID; this binds it to
			// the Migration before the job's proc runs.
			o.cfg.CL.Metrics.Emit(metrics.Event{Kind: "attempt", Mig: m.ID, Note: j.ID})
			j.Wait()
			o.incoming[dst]--
			m.Report = j.Report
			if j.Err == nil {
				m.state = Done
				m.Blackout = j.Report.ServiceBlackout
				m.SLOMet = d.BlackoutSLO == 0 || m.Blackout <= d.BlackoutSLO
				o.mDone.Inc()
				if !m.SLOMet {
					o.mSLOMissed.Inc()
				}
				return
			}
			m.LastErr = j.Err
			if attempt >= d.Retries {
				m.state = Failed
				m.Err = j.Err
				o.mFailed.Inc()
				return
			}
			// Aborted and rolled back: retry after exponential backoff so a
			// persistently faulty path stops hammering the fabric.
			o.mRetried.Inc()
			delay := o.cfg.BackoffBase << attempt
			if limit := maxBackoffFactor * o.cfg.BackoffBase; delay > limit || delay <= 0 {
				delay = limit
			}
			o.sched.Sleep(delay)
		}
	})
}

// load scores a host for placement: resident registered containers
// plus in-flight migrations already targeting it.
func (o *Orchestrator) load(host string) int {
	n := o.incoming[host]
	for _, w := range o.workloads {
		if w.C.Host.Name == host {
			n++
		}
	}
	return n
}

// place builds the candidate set — every non-draining host with a
// daemon, in sorted-name order — and asks the policy.
func (o *Orchestrator) place(d *Drain, src string) string {
	srcHost := o.cfg.CL.Host(src)
	var cands []Candidate
	for _, host := range o.cfg.CL.Names() {
		if host == src || o.draining[host] > 0 {
			continue
		}
		if _, ok := o.cfg.Daemons[host]; !ok {
			continue
		}
		cands = append(cands, Candidate{
			Host: host,
			Rack: o.cfg.CL.Host(host).Rack,
			Load: o.load(host),
		})
	}
	return LeastLoaded{PreferSameRack: true}.Place(Candidate{Host: src, Rack: srcHost.Rack, Load: o.load(src)}, cands)
}
