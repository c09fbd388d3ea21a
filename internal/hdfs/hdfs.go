// Package hdfs is a miniature RDMA-accelerated Hadoop/HDFS (the
// real-world application of §5.6): a master that assigns tasks and
// tracks progress logs, workers that execute them in containers over
// the MigrRDMA guest library, and a datanode that stores DFSIO blocks
// written over RDMA.
//
// Two workloads mirror the paper's: TestDFSIO (bulk RDMA WRITEs of
// fixed-size blocks, reporting throughput) and EstimatePI (compute
// rounds with small RDMA SENDs of partial results). Two continuity
// mechanisms are compared, as in Fig. 6: MigrRDMA live migration of the
// worker container, and Hadoop's native failover — the master detects
// the lost worker by missed heartbeats, re-assigns the task to a backup
// worker on another server, and the backup resumes from the task log.
package hdfs

import (
	"fmt"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// JobKind selects the workload.
type JobKind int

// Supported job kinds.
const (
	TestDFSIO JobKind = iota
	EstimatePI
)

func (k JobKind) String() string {
	if k == TestDFSIO {
		return "TestDFSIO"
	}
	return "EstimatePI"
}

// JobSpec describes one submitted job.
type JobSpec struct {
	Kind JobKind

	// TestDFSIO parameters.
	Blocks    int
	BlockSize int
	// BlockCompute models per-block work besides the RDMA transfer
	// (checksumming, commit, disk path).
	BlockCompute time.Duration

	// EstimatePI parameters.
	Rounds    int
	RoundTime time.Duration
	Samples   int // Monte-Carlo samples per round
}

// Units returns the number of loggable work units.
func (s JobSpec) Units() int {
	if s.Kind == TestDFSIO {
		return s.Blocks
	}
	return s.Rounds
}

// JobResult is the outcome the master reports.
type JobResult struct {
	Kind     JobKind
	JCT      time.Duration
	Bytes    int64
	TputGbps float64
	Pi       float64
	// FailedOver reports whether the native failover path recovered the
	// job (versus finishing on the original or migrated worker).
	FailedOver bool
}

// --- Master -------------------------------------------------------------------

// Failure detection, with Hadoop-like settings.
const (
	// heartbeatEvery is the worker's heartbeat period and the master's
	// check period.
	heartbeatEvery = 1 * time.Second
	// detectAfter is how long without heartbeats before the worker is
	// declared dead (Hadoop-style conservative timeout).
	detectAfter = 10 * time.Second
	// recoveryLat models the backup reading the task log and re-staging
	// the task runtime.
	recoveryLat = 2 * time.Second
)

// Master coordinates jobs, tracks per-unit progress logs and drives
// failover.
type Master struct {
	sched *sim.Scheduler
	ep    *oob.Endpoint

	workers map[string]*workerState
	job     *jobState
}

type workerState struct {
	name     string
	node     string
	lastBeat time.Duration
}

type jobState struct {
	spec    JobSpec
	worker  string
	started time.Duration
	// done[i] marks unit i completed — the task log failover replays.
	done      []bool
	doneCount int
	piInside  int64
	piTotal   int64
	finished  bool
	failedOv  bool
	fin       *sim.Cond
}

// NewMaster starts a master on a host's hub.
func NewMaster(sched *sim.Scheduler, hub *oob.Hub) *Master {
	m := &Master{
		sched:   sched,
		ep:      hub.Endpoint("hdfs-master"),
		workers: make(map[string]*workerState),
	}
	m.ep.Handle("register", m.hRegister)
	m.ep.Handle("heartbeat", m.hHeartbeat)
	m.ep.Handle("unit-done", m.hUnitDone)
	return m
}

type registerMsg struct{ Name, Node string }

type heartbeatMsg struct{ Name string }

type unitDoneMsg struct {
	Name   string
	Unit   int
	Inside int64 // EstimatePI: samples inside the circle
	Total  int64
}

type assignMsg struct {
	Spec JobSpec
	// Done marks units already logged; the worker skips them (failover
	// resume from the log).
	Done []bool
}

func (m *Master) hRegister(msg oob.Msg) []byte {
	var r registerMsg
	codec.MustDecode(msg.Body, &r)
	m.workers[r.Name] = &workerState{name: r.Name, node: r.Node, lastBeat: m.sched.Now()}
	return []byte("ok")
}

func (m *Master) hHeartbeat(msg oob.Msg) []byte {
	var h heartbeatMsg
	codec.MustDecode(msg.Body, &h)
	if w, ok := m.workers[h.Name]; ok {
		w.lastBeat = m.sched.Now()
	}
	return nil
}

func (m *Master) hUnitDone(msg oob.Msg) []byte {
	var u unitDoneMsg
	codec.MustDecode(msg.Body, &u)
	j := m.job
	if j == nil || u.Unit >= len(j.done) || j.done[u.Unit] {
		return nil
	}
	j.done[u.Unit] = true
	j.doneCount++
	j.piInside += u.Inside
	j.piTotal += u.Total
	if j.doneCount == len(j.done) && !j.finished {
		j.finished = true
		j.fin.Broadcast()
	}
	return nil
}

// Submit assigns the job to the named worker and returns once accepted.
func (m *Master) Submit(spec JobSpec, worker string) {
	w, ok := m.workers[worker]
	if !ok {
		panic("hdfs: unknown worker " + worker)
	}
	m.job = &jobState{
		spec:    spec,
		worker:  worker,
		started: m.sched.Now(),
		done:    make([]bool, spec.Units()),
		fin:     sim.NewCond(m.sched, "job-finished"),
	}
	m.ep.Send(w.node, "hdfs-w:"+worker, "assign", assignMsg{Spec: spec, Done: m.job.done})
}

// Wait blocks until the job finishes and returns its result.
func (m *Master) Wait() JobResult {
	j := m.job
	for !j.finished {
		j.fin.Wait()
	}
	res := JobResult{
		Kind:       j.spec.Kind,
		JCT:        m.sched.Now() - j.started,
		FailedOver: j.failedOv,
	}
	if j.spec.Kind == TestDFSIO {
		res.Bytes = int64(j.spec.Blocks) * int64(j.spec.BlockSize)
		res.TputGbps = float64(res.Bytes) * 8 / res.JCT.Seconds() / 1e9
	} else if j.piTotal > 0 {
		res.Pi = 4 * float64(j.piInside) / float64(j.piTotal)
	}
	return res
}

// MonitorFailover watches heartbeats and re-assigns the job to the
// backup worker when the active worker is declared dead. Spawn it as a
// proc for failover experiments; without it, a dead worker hangs the
// job (as Hadoop would without speculative execution).
func (m *Master) MonitorFailover(backup string) {
	for {
		m.sched.Sleep(heartbeatEvery)
		j := m.job
		if j == nil || j.finished {
			return
		}
		w, ok := m.workers[j.worker]
		if !ok {
			continue
		}
		if m.sched.Now()-w.lastBeat < detectAfter {
			continue
		}
		// Declared dead: recover on the backup from the task log.
		b, ok := m.workers[backup]
		if !ok {
			panic("hdfs: no backup worker " + backup)
		}
		m.sched.Sleep(recoveryLat)
		j.worker = backup
		j.failedOv = true
		done := make([]bool, len(j.done))
		copy(done, j.done)
		m.ep.Send(b.node, "hdfs-w:"+backup, "assign", assignMsg{Spec: j.spec, Done: done})
		return
	}
}

// --- Worker -------------------------------------------------------------------

// Worker executes assigned tasks inside a container process.
type Worker struct {
	Name       string
	MasterNode string
	// DataNode is the primary storage peer DFSIO blocks are written to.
	DataNode     string
	DataNodeName string
	// Replicas are additional datanodes each block is replicated to
	// (HDFS-style replication; the paper's HDFS deployment replicates
	// blocks across datanodes).
	Replicas []Replica

	Sess *core.Session

	killed bool

	ready   bool
	readyC  *sim.Cond
	blockMR *core.MR
	qp      *core.QP
	rkey    uint32
	raddr   mem.Addr
	pd      *core.PD
	cq      *core.CQ
	reps    []replicaConn
}

// Replica names an additional datanode.
type Replica struct {
	Node string
	Name string
}

type replicaConn struct {
	qp    *core.QP
	rkey  uint32
	raddr mem.Addr
}

// NewWorker creates a worker descriptor.
func NewWorker(sched *sim.Scheduler, name, masterNode, dataNode, dataNodeName string) *Worker {
	return &Worker{
		Name: name, MasterNode: masterNode,
		DataNode: dataNode, DataNodeName: dataNodeName,
		readyC: sim.NewCond(sched, "hdfs-worker-ready:"+name),
	}
}

// Kill simulates the worker's server going down for maintenance without
// migration: the process stops executing and heart-beating.
func (w *Worker) Kill() { w.killed = true }

// WaitReady blocks until the worker registered and connected.
func (w *Worker) WaitReady() {
	for !w.ready {
		w.readyC.Wait()
	}
}

// workerBuf is the DFSIO staging buffer location.
const workerBuf = mem.Addr(0x20_0000_0000)

// Run is the worker process main.
func (w *Worker) Run(p *task.Process, d *core.Daemon) {
	sess := core.NewSession(p, d)
	w.Sess = sess
	sched := p.Scheduler()
	ep := d.Host().Hub.Endpoint("hdfs-w:" + w.Name)

	// RDMA setup: one RC QP to the datanode, one staging MR.
	const bufLen = 8 << 20
	if _, err := p.AS.Map(workerBuf, bufLen, "dfsio-buffer"); err != nil {
		panic(err)
	}
	w.pd = sess.AllocPD()
	w.cq = sess.CreateCQ(4096, nil)
	mr, err := sess.RegMR(w.pd, workerBuf, bufLen, rnic.AccessLocalWrite|rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
	if err != nil {
		panic(err)
	}
	w.blockMR = mr
	w.qp = sess.CreateQP(w.pd, core.QPConfig{Type: rnic.RC, SendCQ: w.cq, RecvCQ: w.cq,
		Caps: rnic.QPCaps{MaxSend: 64, MaxRecv: 8}})
	if err := w.qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
		panic(err)
	}
	resp := ep.Call(w.DataNode, "dn:"+w.DataNodeName, "open", dnOpenReq{
		Node: d.Node(), VQPN: w.qp.VQPN(),
	})
	var or dnOpenResp
	codec.MustDecode(resp, &or)
	if or.Err != "" {
		panic("hdfs: datanode open: " + or.Err)
	}
	if err := w.qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: w.DataNode, RemoteQPN: or.VQPN}); err != nil {
		panic(err)
	}
	if err := w.qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
		panic(err)
	}
	w.rkey, w.raddr = or.RKey, mem.Addr(or.BufAddr)

	// Open one QP per replica datanode.
	for _, rep := range w.Replicas {
		rqp := sess.CreateQP(w.pd, core.QPConfig{Type: rnic.RC, SendCQ: w.cq, RecvCQ: w.cq,
			Caps: rnic.QPCaps{MaxSend: 64, MaxRecv: 8}})
		if err := rqp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
			panic(err)
		}
		resp := ep.Call(rep.Node, "dn:"+rep.Name, "open", dnOpenReq{
			Node: d.Node(), VQPN: rqp.VQPN(),
		})
		var ror dnOpenResp
		codec.MustDecode(resp, &ror)
		if ror.Err != "" {
			panic("hdfs: replica open: " + ror.Err)
		}
		if err := rqp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: rep.Node, RemoteQPN: ror.VQPN}); err != nil {
			panic(err)
		}
		if err := rqp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
			panic(err)
		}
		w.reps = append(w.reps, replicaConn{qp: rqp, rkey: ror.RKey, raddr: mem.Addr(ror.BufAddr)})
	}

	ep.Call(w.MasterNode, "hdfs-master", "register", registerMsg{Name: w.Name, Node: d.Node()})

	// Heartbeat proc: stops while frozen (Gate) and dies with the worker.
	sched.Go("hdfs-hb:"+w.Name, func() {
		for !w.killed && !p.Exited() {
			p.Gate()
			if w.killed {
				return
			}
			ep.Send(w.MasterNode, "hdfs-master", "heartbeat", heartbeatMsg{Name: w.Name})
			sched.Sleep(heartbeatEvery)
		}
	})

	w.ready = true
	w.readyC.Broadcast()

	// Task loop.
	for !w.killed {
		p.Gate()
		msg, ok := ep.TryRecv()
		if !ok {
			sched.Sleep(500 * time.Microsecond)
			continue
		}
		if msg.Kind != "assign" {
			continue
		}
		var a assignMsg
		codec.MustDecode(msg.Body, &a)
		w.execute(p, ep, a)
	}
}

// execute runs one assigned task, skipping units the log marks done.
func (w *Worker) execute(p *task.Process, ep *oob.Endpoint, a assignMsg) {
	sched := p.Scheduler()
	for unit := 0; unit < a.Spec.Units(); unit++ {
		if w.killed {
			return
		}
		p.Gate()
		if unit < len(a.Done) && a.Done[unit] {
			continue
		}
		switch a.Spec.Kind {
		case TestDFSIO:
			if err := w.writeBlock(a.Spec, unit); err != nil {
				panic(fmt.Sprintf("hdfs: block %d: %v", unit, err))
			}
			ep.Send(w.MasterNode, "hdfs-master", "unit-done", unitDoneMsg{Name: w.Name, Unit: unit})
		case EstimatePI:
			inside, total := w.piRound(p, a.Spec)
			// Ship the partial result over RDMA SEND to the datanode's
			// collector region, then log completion with the master.
			ep.Send(w.MasterNode, "hdfs-master", "unit-done", unitDoneMsg{
				Name: w.Name, Unit: unit, Inside: inside, Total: total,
			})
		}
	}
	_ = sched
}

// writeBlock streams one DFSIO block to the primary datanode and every
// replica via RDMA WRITE in 1 MiB chunks, with a small per-block
// checksum compute.
func (w *Worker) writeBlock(spec JobSpec, unit int) error {
	const chunk = 1 << 20
	sched := w.Sess.Sched()
	targets := make([]replicaConn, 0, 1+len(w.reps))
	targets = append(targets, replicaConn{qp: w.qp, rkey: w.rkey, raddr: w.raddr})
	targets = append(targets, w.reps...)
	remaining := spec.BlockSize * len(targets)
	perTarget := make([]int, len(targets))
	for i := range perTarget {
		perTarget[i] = spec.BlockSize
	}
	var outstanding int
	for remaining > 0 || outstanding > 0 {
		if w.killed {
			return nil // host went down mid-block; failover redoes it
		}
		w.Sess.Proc.Gate()
		for ti := range targets {
			for perTarget[ti] > 0 && outstanding < 8 {
				n := perTarget[ti]
				if n > chunk {
					n = chunk
				}
				tgt := targets[ti]
				err := tgt.qp.PostSend(rnic.SendWR{
					WRID: uint64(unit), Opcode: rnic.OpWrite, Signaled: true,
					SGEs:       []rnic.SGE{{Addr: workerBuf, Len: uint32(n), LKey: w.blockMR.LKey()}},
					RemoteAddr: tgt.raddr, RKey: tgt.rkey,
				})
				if err != nil {
					return err
				}
				perTarget[ti] -= n
				remaining -= n
				outstanding++
			}
		}
		if outstanding == 0 {
			continue
		}
		w.cq.WaitNonEmpty()
		for _, e := range w.cq.Poll(16) {
			if e.Status != rnic.WCSuccess {
				return fmt.Errorf("write completion: %v", e.Status)
			}
			outstanding--
		}
	}
	// Per-block checksum/commit compute.
	bc := spec.BlockCompute
	if bc == 0 {
		bc = 200 * time.Microsecond
	}
	sched.Sleep(bc)
	return nil
}

// piRound runs one Monte-Carlo round: pure compute plus a tiny SEND.
func (w *Worker) piRound(p *task.Process, spec JobSpec) (inside, total int64) {
	rt := spec.RoundTime
	if rt == 0 {
		rt = 50 * time.Millisecond
	}
	p.Compute(rt)
	n := spec.Samples
	if n == 0 {
		n = 100000
	}
	rng := p.Scheduler().Rand()
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			inside++
		}
	}
	// Small RDMA WRITE carrying the round's partial result.
	_ = w.qp.PostSend(rnic.SendWR{
		WRID: 1<<32 | uint64(inside), Opcode: rnic.OpWrite, Signaled: true,
		SGEs:       []rnic.SGE{{Addr: workerBuf, Len: 16, LKey: w.blockMR.LKey()}},
		RemoteAddr: w.raddr, RKey: w.rkey,
	})
	w.cq.WaitNonEmpty()
	w.cq.Poll(16)
	return inside, int64(n)
}

// --- DataNode -----------------------------------------------------------------

// DataNode is the passive RDMA storage peer: it exposes a block-landing
// MR and accepts QP connections from workers.
type DataNode struct {
	Name string
	Sess *core.Session

	ready  bool
	readyC *sim.Cond

	pd *core.PD
	cq *core.CQ
	mr *core.MR
}

// dataNodeBuf is where inbound blocks land.
const dataNodeBuf = mem.Addr(0x30_0000_0000)

type dnOpenReq struct {
	Node string
	VQPN uint32
}

type dnOpenResp struct {
	VQPN    uint32
	RKey    uint32
	BufAddr uint64
	Err     string
}

// NewDataNode creates a datanode descriptor.
func NewDataNode(sched *sim.Scheduler, name string) *DataNode {
	return &DataNode{Name: name, readyC: sim.NewCond(sched, "hdfs-dn-ready:"+name)}
}

// WaitReady blocks until the datanode accepts connections.
func (dn *DataNode) WaitReady() {
	for !dn.ready {
		dn.readyC.Wait()
	}
}

// Run is the datanode process main.
func (dn *DataNode) Run(p *task.Process, d *core.Daemon) {
	sess := core.NewSession(p, d)
	dn.Sess = sess
	const bufLen = 16 << 20
	if _, err := p.AS.Map(dataNodeBuf, bufLen, "dn-buffer"); err != nil {
		panic(err)
	}
	dn.pd = sess.AllocPD()
	dn.cq = sess.CreateCQ(4096, nil)
	mr, err := sess.RegMR(dn.pd, dataNodeBuf, bufLen,
		rnic.AccessLocalWrite|rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
	if err != nil {
		panic(err)
	}
	dn.mr = mr
	ep := d.Host().Hub.Endpoint("dn:" + dn.Name)
	ep.Handle("open", func(m oob.Msg) []byte {
		var req dnOpenReq
		codec.MustDecode(m.Body, &req)
		qp := sess.CreateQP(dn.pd, core.QPConfig{Type: rnic.RC, SendCQ: dn.cq, RecvCQ: dn.cq,
			Caps: rnic.QPCaps{MaxSend: 8, MaxRecv: 128}})
		for _, a := range []rnic.ModifyAttr{
			{State: rnic.StateInit},
			{State: rnic.StateRTR, RemoteNode: req.Node, RemoteQPN: req.VQPN},
			{State: rnic.StateRTS},
		} {
			if err := qp.Modify(a); err != nil {
				return m.Reply(dnOpenResp{Err: err.Error()})
			}
		}
		return m.Reply(dnOpenResp{VQPN: qp.VQPN(), RKey: dn.mr.RKey(), BufAddr: uint64(dataNodeBuf)})
	})
	dn.ready = true
	dn.readyC.Broadcast()
	// Passive: one-sided writes need no completion handling.
}
