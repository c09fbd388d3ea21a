// Package migmgr is per-host migration admission: the executor one
// source host runs beneath the orchestrator. It admits container
// migrations under a concurrency cap, queues the rest in submission
// order, rejects a second migration of a busy container (ErrConflict),
// and assigns each migration a stable ID ("m1", "m2", …) that it threads
// through the Migrator so overlapping runs stay distinguishable in
// daemon state, stream events, and metrics labels. A job runs once: what
// happens after a failed one — backoff, retry, another destination — is
// the orchestrator's decision, not the executor's.
package migmgr

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/metrics"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
)

// queueWaitBucketsUS are the histogram bounds (µs) for admission queue
// wait times: sub-millisecond when the cap is generous, up to whole
// migration durations when drains pile up.
var queueWaitBucketsUS = []int64{100, 1000, 10000, 100000, 1000000, 10000000}

// State is a job's lifecycle position.
type State int

const (
	Queued State = iota
	Running
	Done
	Failed
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Spec describes one requested container migration. The source host is
// read from the container at start time (not submission time), so a
// container that was itself just migrated drains from wherever it
// currently lives.
type Spec struct {
	C    *runc.Container
	Dst  string
	Opts runc.MigrateOptions
}

// Job tracks one submitted migration through the manager.
type Job struct {
	ID   string
	Spec Spec

	mgr   *Manager
	state State
	// Src is the source host name, resolved when the job starts.
	Src string

	Submitted, Started, Finished time.Duration

	Report *runc.Report
	Err    error
}

// State returns the job's lifecycle position.
func (j *Job) State() State { return j.state }

// QueueWait is the admission delay, Started − Submitted: valid once the
// job has started.
func (j *Job) QueueWait() time.Duration { return j.Started - j.Submitted }

// Wait parks the calling proc until the job finished (Done or Failed).
func (j *Job) Wait() {
	for j.state != Done && j.state != Failed {
		j.mgr.changed.Wait()
	}
}

// ErrConflict rejects a Submit whose container already has an active
// (queued or running) migration in this manager. A container can only
// be drained once at a time; callers that want a follow-up move must
// wait for the active job to finish.
var ErrConflict = errors.New("migmgr: container already has an active migration")

// Manager admits migrations under a concurrency cap.
type Manager struct {
	sched   *sim.Scheduler
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
	max     int

	nextID  int
	queue   []*Job
	jobs    []*Job
	running int
	// busy marks the containers of running jobs.
	busy    map[*runc.Container]bool
	changed *sim.Cond

	mActive    metrics.Gauge
	mQueued    metrics.Gauge
	mSubmitted metrics.Counter
	mCompleted metrics.Counter
	mFailed    metrics.Counter

	// IDPrefix, when set before the first Submit, prefixes every job ID
	// ("r0h1/" ⇒ "r0h1/m1"). The orchestrator runs one executor per
	// source host and needs their IDs — which flow into daemon state,
	// stream events and metric labels — to stay distinguishable.
	IDPrefix string
}

// New creates a manager over the cluster's daemons admitting at most
// max concurrent migrations (max <= 0 means 1).
func New(cl *cluster.Cluster, daemons map[string]*core.Daemon, max int) *Manager {
	if max <= 0 {
		max = 1
	}
	m := &Manager{
		sched:   cl.Sched,
		cl:      cl,
		daemons: daemons,
		max:     max,
		busy:    make(map[*runc.Container]bool),
		changed: sim.NewCond(cl.Sched, "migmgr"),
	}
	if reg := cl.Metrics; reg != nil {
		b := reg.Block("migmgr", metrics.Labels{}, 5)
		m.mActive = b.Gauge("active")
		m.mQueued = b.Gauge("queued")
		m.mSubmitted = b.Counter("submitted")
		m.mCompleted = b.Counter("completed")
		m.mFailed = b.Counter("failed")
	}
	return m
}

// Submit enqueues a migration and returns its job. IDs are assigned in
// submission order per manager ("m1", "m2", …) — deterministic under a
// fixed schedule, unlike a process-global counter. A container with a
// migration already queued or running is rejected with ErrConflict
// rather than silently queued behind it.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if m.busy[spec.C] {
		return nil, ErrConflict
	}
	for _, q := range m.queue {
		if q.Spec.C == spec.C {
			return nil, ErrConflict
		}
	}
	m.nextID++
	j := &Job{
		ID:        m.IDPrefix + "m" + strconv.Itoa(m.nextID),
		Spec:      spec,
		mgr:       m,
		state:     Queued,
		Submitted: m.sched.Now(),
	}
	m.jobs = append(m.jobs, j)
	m.queue = append(m.queue, j)
	m.mSubmitted.Inc()
	m.mQueued.Set(int64(len(m.queue)))
	m.pump()
	return j, nil
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	out := make([]*Job, len(m.jobs))
	copy(out, m.jobs)
	return out
}

// Admission reports what the manager holds right now: admission slots
// taken, jobs queued, containers marked busy. All three read zero once
// every job has finished.
func (m *Manager) Admission() (running, queued, busy int) {
	return m.running, len(m.queue), len(m.busy)
}

// WaitAll parks until every submitted job finished.
func (m *Manager) WaitAll() {
	for m.running > 0 || len(m.queue) > 0 {
		m.changed.Wait()
	}
}

// pump starts queued jobs, oldest first, while capacity allows.
func (m *Manager) pump() {
	for len(m.queue) > 0 && m.running < m.max {
		j := m.queue[0]
		m.queue = append(m.queue[:0], m.queue[1:]...)
		m.start(j)
	}
	m.mQueued.Set(int64(len(m.queue)))
}

// start launches a job's migration on its own proc.
func (m *Manager) start(j *Job) {
	m.running++
	m.busy[j.Spec.C] = true
	j.state = Running
	j.Started = m.sched.Now()
	j.Src = j.Spec.C.Host.Name
	m.mActive.Set(int64(m.running))
	if reg := m.cl.Metrics; reg != nil {
		reg.Histogram("migmgr", "queue_wait_us", metrics.L("mig", j.ID), queueWaitBucketsUS).
			Observe(j.QueueWait().Microseconds())
	}
	m.sched.Go("migmgr/"+j.ID, func() {
		j.Report, j.Err = m.migrate(j)
		j.Finished = m.sched.Now()
		// Release the admission slot and the container on success and
		// failure alike, so queued migrations keep draining.
		m.running--
		delete(m.busy, j.Spec.C)
		if j.Err == nil {
			j.state = Done
			m.mCompleted.Inc()
		} else {
			j.state = Failed
			m.mFailed.Inc()
		}
		m.mActive.Set(int64(m.running))
		m.pump()
		m.changed.Broadcast()
	})
}

// migrate builds the Migrator for a job and runs it.
func (m *Manager) migrate(j *Job) (*runc.Report, error) {
	srcD, ok := m.daemons[j.Src]
	if !ok {
		return nil, fmt.Errorf("migmgr: no daemon on source host %s", j.Src)
	}
	dstD, ok := m.daemons[j.Spec.Dst]
	if !ok {
		return nil, fmt.Errorf("migmgr: no daemon on destination host %s", j.Spec.Dst)
	}
	mig := &runc.Migrator{
		ID:   j.ID,
		C:    j.Spec.C,
		Dst:  m.cl.Host(j.Spec.Dst),
		Plug: core.NewPlugin(srcD, dstD),
		Opts: j.Spec.Opts,
	}
	return mig.Migrate()
}
