package core

import (
	"cmp"
	"slices"
	"time"

	"migrrdma/internal/fifo"
	"migrrdma/internal/rnic"
)

// This file implements wait-before-stop (§3.4): when stop-and-copy is
// about to begin, the affected QPs are suspended (further posts are
// intercepted) and the library waits until every in-flight work request
// has completed, polling CQs on the application's behalf into fake CQs
// so the application can keep consuming completions and computing.
//
// The paper runs this on a dedicated thread spawned when the library is
// loaded; here it runs on the control daemon's handler proc, which is
// likewise a separate execution context from the application's procs —
// the observable behaviour (application keeps running, completions are
// preserved, termination conditions) is identical.

// Wait-before-stop's calibration.
const (
	// wbsPollInterval is the pause between CQ sweep rounds.
	wbsPollInterval = 2 * time.Microsecond
	// wbsPerCQE is the wait-before-stop thread's CPU cost to process one
	// completion. For small messages it dominates over wire drain time —
	// the §5.4 observation that at 512 B the measured time is ~6× the
	// inflight_bytes/link_rate theory value.
	wbsPerCQE = 300 * time.Nanosecond
	// defaultWBSTimeout bounds a daemon's wait-before-stop unless
	// SetWBSTimeout says otherwise: in spotty networks (§3.4 "Handling
	// buggy network situations") stop-and-copy proceeds on expiry and
	// leftover WRs are replayed after restoration.
	defaultWBSTimeout = 2 * time.Second
)

// WBSResult reports one wait-before-stop execution.
type WBSResult struct {
	Elapsed  time.Duration
	TimedOut bool
	// LeftoverSends counts WRs still unfinished at timeout (0 on a
	// clean termination); they are replayed after restoration.
	LeftoverSends int
	// InflightBytes is the posted-but-uncompleted payload at suspension
	// time; InflightBytes/link_rate is the §5.4 theory value.
	InflightBytes int64
}

// Suspend raises the suspension flag of the given QPs: subsequent posts
// are intercepted and buffered (§3.4 "Communication suspension").
func (s *Session) Suspend(qps []*QP) {
	for _, qp := range qps {
		qp.suspended = true
		qp.suspendedOn = qp.v
	}
}

// SuspendAll suspends every QP of the session (the migrated service
// suspends all communication).
func (s *Session) SuspendAll() []*QP {
	out := s.sortedQPs()
	s.Suspend(out)
	return out
}

// SuspendByPhys suspends exactly the session QPs whose current physical
// QPN is listed — the partner side of one identified migration. QPs
// that merely share the peer node but belong to other (possibly also
// migrating) processes stay untouched; under concurrent migrations
// those would otherwise be suspended with nobody ever switching or
// resuming them.
func (s *Session) SuspendByPhys(qpns []uint32) []*QP {
	want := make(map[uint32]bool, len(qpns))
	for _, q := range qpns {
		want[q] = true
	}
	var out []*QP
	for _, qp := range s.qps {
		if qp.typ == rnic.RC && want[qp.v.QPN()] {
			out = append(out, qp)
		}
	}
	sortQPs(out)
	s.Suspend(out)
	return out
}

// sortQPs orders QPs by virtual QPN for deterministic iteration.
func sortQPs(qps []*QP) {
	slices.SortFunc(qps, func(a, b *QP) int { return cmp.Compare(a.vqpn, b.vqpn) })
}

// announceNSent sends each suspended QP's n_sent counter to its peer
// (§3.4: receive queues need the peer's posted count to decide there
// are no in-flight RECVs).
func (s *Session) announceNSent(qps []*QP) {
	for _, qp := range qps {
		if qp.typ != rnic.RC || qp.v.State() != rnic.StateRTS {
			continue
		}
		nSent, _ := qp.v.Counters()
		s.daemon.sendNSent(qp.v.RemoteNode(), qp.v.RemoteQPN(), nSent)
	}
}

// deliverNSent records a peer's n_sent for the local QP with the given
// physical QPN (called by the daemon).
func (s *Session) deliverNSent(physQPN uint32, nSent uint64) {
	for _, qp := range s.qps {
		if qp.v.QPN() == physQPN {
			qp.peerNSent = nSent
			qp.peerNSentKnown = true
			return
		}
	}
}

// WaitBeforeStop drains in-flight work on the given suspended QPs. It
// keeps polling every CQ of the session, parking completions in fake
// CQs, until for each QP: the SQ window is empty, the peer's n_sent
// equals the completed receive count, and no CQ events are unhandled —
// or until timeout has passed.
func (s *Session) WaitBeforeStop(qps []*QP, timeout time.Duration) WBSResult {
	sched := s.ctx.Scheduler()
	s.wbsDepth++
	defer func() {
		// The last to end gives the real CQs back to the application.
		if s.wbsDepth--; s.wbsDepth == 0 {
			for _, cq := range s.cqs {
				cq.wake.Broadcast()
			}
		}
	}()
	start := sched.Now()
	var inflight int64
	for _, qp := range qps {
		for i := 0; i < qp.unfinished.Len(); i++ {
			for _, sge := range qp.unfinished.At(i).sges.Get() {
				inflight += int64(sge.Len)
			}
		}
	}
	s.announceNSent(qps)
	for {
		if n := s.sweepCQs(); n > 0 {
			sched.Sleep(time.Duration(n) * wbsPerCQE)
		}
		if s.wbsDone(qps) {
			return WBSResult{Elapsed: sched.Now() - start, InflightBytes: inflight}
		}
		if sched.Now()-start >= timeout {
			left := 0
			for _, qp := range qps {
				left += qp.unfinished.Len()
			}
			return WBSResult{Elapsed: sched.Now() - start, TimedOut: true, LeftoverSends: left, InflightBytes: inflight}
		}
		sched.Sleep(wbsPollInterval)
	}
}

// sweepCQs moves pending real completions into the fake CQs, performing
// the library bookkeeping the application's own polling would do. It
// returns the number of completions processed so the caller can charge
// the per-CQE CPU cost.
func (s *Session) sweepCQs() int {
	s.mWBSRounds.Inc()
	n := 0
	for _, cq := range s.cqs {
		had := len(cq.fake)
		for {
			var batch [64]rnic.CQE
			got := cq.v.PollInto(batch[:])
			if got == 0 {
				break
			}
			for _, e := range batch[:got] {
				if s.staleCQE(e) {
					continue
				}
				s.absorb(cq, e)
				cq.fake = append(cq.fake, e)
			}
			n += got
		}
		if len(cq.fake) > had {
			cq.wake.Broadcast()
			if cq.ch != nil {
				cq.ch.wake.Broadcast()
			}
		}
		s.mFakeDepth.Set(int64(len(cq.fake)))
	}
	s.mSweepCQEs.Add(int64(n))
	return n
}

// wbsDone evaluates the §3.4 termination conditions.
func (s *Session) wbsDone(qps []*QP) bool {
	if s.unhandledEvents != 0 {
		return false
	}
	for _, qp := range qps {
		if qp.unfinished.Len() > 0 {
			return false
		}
		_, nRecv := qp.v.Counters()
		if qp.peerNSentKnown {
			if qp.peerNSent != nRecv {
				return false
			}
		} else if nRecv > 0 {
			// The peer has used two-sided verbs but its n_sent has not
			// arrived yet; wait for the announcement.
			return false
		}
	}
	return true
}

// Resume clears suspension and re-posts what accumulated during it:
// first the WRs that were posted but never completed (only present
// after a timed-out wait-before-stop), then the intercepted WRs, then
// the receive WRs that never saw a message (§3.2 step ⑦ and §3.4).
func (s *Session) Resume(qps []*QP) error {
	// Completions may have landed between wait-before-stop's last sweep
	// (or its timeout) and now; retire them first so their WRs are not
	// replayed below — the fake-CQ entry plus the replay's own completion
	// would double-count the WR.
	s.sweepCQs()
	anySwitched := false
	for _, qp := range qps {
		qp.suspended = false
		qp.peerNSentKnown = false
		// An in-place resume (abort rollback): the device QP that held
		// the work at suspension time is still qp.v, its SQ and RQ still
		// own every shadowed WR, and replaying them would double-post.
		// Only the intercepted WRs — which never reached the NIC — are
		// released below.
		sameDev := qp.suspendedOn == qp.v && qp.suspendedOn != nil
		qp.suspendedOn = nil
		if !sameDev {
			anySwitched = true
		}
		// Replay pending receives on the new QP.
		if qp.srq == nil && !sameDev {
			recvs := qp.pendingRecvs
			qp.pendingRecvs = fifo.Queue[rnic.RecvWQE]{}
			for i := 0; i < recvs.Len(); i++ {
				if err := qp.postRecv(recvs.At(i).Request()); err != nil {
					return err
				}
			}
		}
		// Replay unfinished sends (timeout path), then intercepted WRs.
		var unfinished fifo.Queue[sendShadow]
		if !sameDev {
			unfinished = qp.unfinished
			qp.unfinished = fifo.Queue[sendShadow]{}
		}
		intercepted := qp.intercepted
		qp.intercepted = fifo.Queue[sendShadow]{}
		// Leftover sends survive only a timed-out wait-before-stop. Their
		// original incarnation may still complete on the old QP after the
		// switch-over; remember the WRIDs so those stale completions are
		// dropped instead of double-counted.
		if unfinished.Len() > 0 && qp.oldV != nil {
			oldPhys := qp.oldV.QPN()
			set := s.staleWRIDs[oldPhys]
			if set == nil {
				set = make(map[uint64]bool)
				s.staleWRIDs[oldPhys] = set
			}
			for i := 0; i < unfinished.Len(); i++ {
				set[unfinished.At(i).wr.WRID] = true
			}
		}
		s.mReplayedWRs.Add(int64(unfinished.Len()))
		for _, replay := range [2]*fifo.Queue[sendShadow]{&unfinished, &intercepted} {
			for i := 0; i < replay.Len(); i++ {
				wr := replay.At(i).request()
				if err := qp.postSend(&wr); err != nil {
					return err
				}
			}
		}
	}
	// SRQ pending receives are shared; replay them once — and only when
	// the resume actually moved to fresh devices (an in-place rollback
	// leaves them posted).
	if anySwitched {
		for _, srq := range s.srqs {
			pend := srq.pending
			srq.pending = fifo.Queue[rnic.RecvWQE]{}
			for i := 0; i < pend.Len(); i++ {
				if err := srq.postRecv(pend.At(i).Request()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
