// Package orchestrator is the datacenter-scale drain control plane and
// the one owner of a migration's attempts: declarative KubeVirt-style
// objects over the per-host migration executors. A Drain request —
// "move every container off the hosts this selector matches (or these
// listed containers), at most MaxParallel at a time, each under this
// blackout SLO" — expands into Migration objects with accepted/conflict
// semantics; LeastLoaded placement picks destinations (least-loaded,
// preferring same-rack moves that spare the oversubscribed spine
// uplinks); and aborted migrations — surfaced by the phase engine's
// rollback — are retried with exponential backoff, by this package
// alone. migmgr is the per-host admission executor beneath this layer:
// one Manager per source host, ID-prefixed so concurrent drains stay
// distinguishable in daemon state, stream events and metric labels.
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
	// Src is the container's host at submission. Dst is either listed
	// with the migration, and then every attempt goes there, or filled
	// by the placement policy when an attempt starts (the container may
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

// Drain is the declarative rack/host evacuation request, or a batch of
// listed moves.
type Drain struct {
	// Selector matches the hosts to evacuate: each of their registered
	// containers becomes a placed Migration, and the hosts stop being
	// placement candidates until the drain finished.
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
	// Migrations may be listed before submission — C, plus Dst if known
	// — instead of or after the Selector's expansion, which comes first
	// in deterministic host/registration order. After Submit it holds
	// every one of them, Conflict rejections included.
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
}

const (
	// hostCap is each per-host executor's admission cap: a source host
	// checkpoints at most this many containers at once regardless of
	// drain-level parallelism.
	hostCap = 2
	// backoffBase is the delay before the first retry; it doubles per
	// attempt up to maxBackoffFactor times the base.
	backoffBase = time.Millisecond
	// maxBackoffFactor caps the retry delay at this multiple of
	// backoffBase.
	maxBackoffFactor = 32
)

// Orchestrator owns the cluster-wide drain state.
type Orchestrator struct {
	cfg     Config
	sched   *sim.Scheduler
	changed *sim.Cond

	// workloads are the registered containers in registration order —
	// the deterministic expansion order within one host.
	workloads []*runc.Container
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

	mAccepted, mConflicted metrics.Counter
	mDone, mFailed         metrics.Counter
	mRetried, mSLOMissed   metrics.Counter
}

// New builds an orchestrator over the cluster; drain orchestration is
// control-plane work on the cluster scheduler.
func New(cfg Config) *Orchestrator {
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

// Register adds a migratable container to the inventory: a Selector
// drains registered containers only, and they count toward their
// host's placement load.
func (o *Orchestrator) Register(c *runc.Container) { o.workloads = append(o.workloads, c) }

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

// Submit names and admits a drain's migrations and launches its
// scheduling loop: first the Selector's expansion — hosts in sorted-name
// order, each host's containers in registration order, so the same
// drain against the same cluster always expands identically — then the
// listed ones. A container already claimed by another drain is rejected
// as Conflict; everything else is accepted.
func (o *Orchestrator) Submit(d *Drain) *Drain {
	o.nextDrain++
	d.ID = "d" + strconv.Itoa(o.nextDrain)
	d.orch = o
	if d.MaxParallel <= 0 {
		d.MaxParallel = 1
	}
	listed := d.Migrations
	d.Migrations = nil
	for _, host := range o.cfg.CL.Names() {
		if d.Selector == nil || !d.Selector(o.cfg.CL.Host(host)) {
			continue
		}
		o.draining[host]++
		for _, c := range o.workloads {
			if c.Host.Name == host {
				o.admit(d, &Migration{C: c})
			}
		}
	}
	for _, m := range listed {
		o.admit(d, m)
	}
	o.sched.Go("orch/"+d.ID, func() { o.run(d) })
	return d
}

// admit names m after its drain and its container's host, then accepts
// it, or rejects it as a Conflict when the container already has an
// active migration.
func (o *Orchestrator) admit(d *Drain, m *Migration) {
	m.Src = m.C.Host.Name
	m.ID = d.ID + "/" + m.Src + "/" + m.C.Name
	if o.active[m.C] != nil {
		m.state = Conflict
		m.Err = migmgr.ErrConflict
		o.mConflicted.Inc()
	} else {
		m.state = Pending
		o.active[m.C] = m
		o.mAccepted.Inc()
	}
	d.Migrations = append(d.Migrations, m)
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
		if d.Selector != nil && d.Selector(o.cfg.CL.Host(host)) {
			o.draining[host]--
		}
	}
	d.done = true
	o.changed.Broadcast()
}

// launch drives one migration through attempts and backoff on its own
// proc. It is the only retry loop: an executor runs each attempt once.
func (o *Orchestrator) launch(d *Drain, m *Migration) {
	m.state = Running
	m.Started = o.sched.Now()
	listedDst := m.Dst
	o.sched.Go("orch/"+m.ID, func() {
		defer func() {
			m.Finished = o.sched.Now()
			delete(o.active, m.C)
			o.changed.Broadcast()
		}()
		for attempt := 0; ; attempt++ {
			src, dst := m.C.Host.Name, listedDst // re-resolved: a retried container drains from wherever it lives
			if dst == "" {
				dst = o.place(d, src)
			}
			if dst == "" {
				m.state = Failed
				m.Err = fmt.Errorf("orchestrator: %s: no feasible destination", m.ID)
				o.mFailed.Inc()
				return
			}
			m.Src, m.Dst = src, dst
			m.Attempts++
			o.incoming[dst]++
			j, err := o.exec(src).Submit(migmgr.Spec{C: m.C, Dst: dst, Opts: o.cfg.Opts})
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
			delay := backoffBase << attempt
			if limit := maxBackoffFactor * backoffBase; delay > limit || delay <= 0 {
				delay = limit
			}
			o.sched.Sleep(delay)
		}
	})
}

// Census is what the orchestrator and its executors still hold on one
// host; a quiesced cluster reads zero on every host.
type Census struct {
	// Active counts accepted, unfinished migrations of the host's
	// containers; Incoming, attempts placed onto the host; Draining,
	// unfinished drains selecting it.
	Active, Incoming, Draining int
	// Running, Queued and Busy are the admission state of the host's
	// executor (migmgr.Manager.Admission); zero if it never had one.
	Running, Queued, Busy int
}

// Census reads one host's in-flight state without changing any.
func (o *Orchestrator) Census(host string) Census {
	c := Census{Incoming: o.incoming[host], Draining: o.draining[host]}
	for cont := range o.active {
		if cont.Host.Name == host {
			c.Active++
		}
	}
	if m, ok := o.execs[host]; ok {
		c.Running, c.Queued, c.Busy = m.Admission()
	}
	return c
}

// load scores a host for placement: resident registered containers
// plus in-flight migrations already targeting it.
func (o *Orchestrator) load(host string) int {
	n := o.incoming[host]
	for _, c := range o.workloads {
		if c.Host.Name == host {
			n++
		}
	}
	return n
}

// place builds the candidate set — every non-draining host with a
// daemon, in sorted-name order — and asks the policy.
func (o *Orchestrator) place(d *Drain, src string) string {
	srcHost := o.cfg.CL.Host(src)
	names := o.cfg.CL.Names()
	cands := make([]Candidate, 0, len(names))
	for _, host := range names {
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
