// Package migmgr is the cluster-level migration manager: the cloud
// manager role of §4 scaled past the paper's one-at-a-time testbed. It
// admits container migrations under a configurable concurrency cap,
// queues the rest, assigns each migration a stable ID ("m1", "m2", …)
// and threads it through the Migrator so overlapping runs stay
// distinguishable in daemon state, stream events, and metrics labels.
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
	// ExtraPlugs is the number of additional RDMA-holding processes in
	// the container beyond the first (see runc.Migrator.ExtraPlugs).
	ExtraPlugs int
	// Retries is the number of times a failed (aborted and rolled back)
	// migration is requeued before the job is marked Failed.
	Retries int
}

// Job tracks one submitted migration through the manager.
type Job struct {
	ID   string
	Spec Spec

	mgr   *Manager
	state State
	mig   runc.Migrator // of the latest attempt
	// Src is the source host name, resolved when the job starts.
	Src string

	Submitted, Started, Finished time.Duration
	// queued is when the latest attempt joined the queue; wait sums every
	// attempt's time there.
	queued, wait time.Duration

	// Attempts counts migration attempts, including the one in flight.
	Attempts int
	// LastErr is the most recent attempt's error; set even when a retry
	// later succeeds, so callers can see a job recovered from an abort.
	LastErr error

	Report *runc.Report
	Err    error
}

// State returns the job's lifecycle position.
func (j *Job) State() State { return j.state }

// Stage is the workflow stage of the latest attempt ("" before one).
func (j *Job) Stage() string { return j.mig.Stage }

// QueueWait is the admission delay: the time the job spent queued, summed
// over its attempts (a requeued attempt waits from its requeue).
func (j *Job) QueueWait() time.Duration { return j.wait }

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
	// busy guards against two concurrent migrations of one container.
	busy    map[*runc.Container]bool
	changed *sim.Cond

	mActive    metrics.Gauge
	mQueued    metrics.Gauge
	mSubmitted metrics.Counter
	mCompleted metrics.Counter
	mFailed    metrics.Counter
	mRetried   metrics.Counter

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
		b := reg.Block("migmgr", metrics.Labels{}, 6)
		m.mActive = b.Gauge("active")
		m.mQueued = b.Gauge("queued")
		m.mSubmitted = b.Counter("submitted")
		m.mCompleted = b.Counter("completed")
		m.mFailed = b.Counter("failed")
		m.mRetried = b.Counter("retried")
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
		queued:    m.sched.Now(),
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

// WaitAll parks until every submitted job finished.
func (m *Manager) WaitAll() {
	for {
		pending := false
		for _, j := range m.jobs {
			if j.state == Queued || j.state == Running {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
		m.changed.Wait()
	}
}

// pump starts queued jobs while capacity allows. A job whose container
// is already migrating is skipped (it stays queued, later jobs may
// overtake it) — Submit rejects such conflicts up front, so this guard
// only matters for the internal abort-retry requeue path.
func (m *Manager) pump() {
	for i := 0; i < len(m.queue) && m.running < m.max; {
		j := m.queue[i]
		if m.busy[j.Spec.C] {
			i++
			continue
		}
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
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
	wait := j.Started - j.queued
	j.wait += wait
	j.Src = j.Spec.C.Host.Name
	m.mActive.Set(int64(m.running))
	if reg := m.cl.Metrics; reg != nil {
		reg.Histogram("migmgr", "queue_wait_us", metrics.L("mig", j.ID), queueWaitBucketsUS).
			Observe(wait.Microseconds())
	}
	m.sched.Go("migmgr/"+j.ID, func() {
		j.Attempts++
		j.Report, j.Err = m.migrate(j)
		j.Finished = m.sched.Now()
		// Release the admission slot and the container unconditionally:
		// every exit path — success, terminal failure, or requeue —
		// frees capacity so queued migrations keep draining.
		m.running--
		delete(m.busy, j.Spec.C)
		switch {
		case j.Err == nil:
			j.state = Done
			m.mCompleted.Inc()
		case j.Attempts <= j.Spec.Retries:
			// The migration aborted and rolled back; spend one unit of
			// the retry budget and requeue behind the current backlog.
			j.LastErr = j.Err
			j.Err = nil
			j.state = Queued
			j.queued = m.sched.Now()
			m.queue = append(m.queue, j)
			m.mRetried.Inc()
		default:
			j.LastErr = j.Err
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
	j.mig = runc.Migrator{
		ID:   j.ID,
		C:    j.Spec.C,
		Dst:  m.cl.Host(j.Spec.Dst),
		Plug: core.NewPlugin(srcD, dstD),
		Opts: j.Spec.Opts,
	}
	for i := 0; i < j.Spec.ExtraPlugs; i++ {
		j.mig.ExtraPlugs = append(j.mig.ExtraPlugs, core.NewPlugin(srcD, dstD))
	}
	return j.mig.Migrate()
}
