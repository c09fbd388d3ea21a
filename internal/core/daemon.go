package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/codec"
	"migrrdma/internal/metrics"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/verbs"
)

// Daemon is the per-host MigrRDMA control endpoint. Conceptually it is
// the driver-resident half of the system: it owns the device-wide
// physical→virtual QPN translation table (shared read-only with every
// session's library, §3.3), tracks the sessions on its host, and serves
// the out-of-band protocol — partner notification (§3.2), suspension
// fan-out and n_sent exchange (§3.4), and rkey/QPN fetches (§3.3).
type Daemon struct {
	host *cluster.Host
	dev  *rnic.Device
	ep   *oobAdapter

	qpn      qpnTable
	sessions []*Session
	// byPhys maps a physical QPN to the session owning it (for rkey
	// fetch routing and n_sent delivery).
	byPhys map[uint32]*Session

	// migs holds, by migration ID, everything this host keeps for a
	// migration in flight (see migration): the one place commit, abort,
	// Close and the census read it from.
	migs map[string]*migration

	// movedVQPN records virtual QPNs whose owning process migrated away
	// and the node it now lives on, so fetches can be redirected.
	movedVQPN map[uint32]string

	// pendingNSent stashes n_sent announcements addressed to a physical
	// QPN this host does not own yet: under concurrent migrations a
	// peer's announcement can race the local switch-over that installs
	// the QPN, and dropping it would stall the waiting side's
	// wait-before-stop until its timeout. Delivered when mapQPN installs
	// the QPN.
	pendingNSent map[uint32]uint64

	wbsTimeout time.Duration
	helloCache map[string]bool
}

// migration is what one host keeps for one migration, in whichever role
// it plays in it. A handler or plugin verb that leaves state for a
// migration leaves it here; the record goes when nothing is left in it.
type migration struct {
	// Destination: the staged restores, by process name, and the plug
	// buffer of a plug-forward cutover (one per host, see installPlug).
	staged map[string]*Staged
	plug   *plugState
	// Source: the forwarding rule tunneling stragglers to the plug (one
	// per host, see installForward).
	forward bool
	// Partner: spare QPs pre-connected to the destination (§3.2), the QP
	// sets suspended on the migration's behalf (§3.4), and the sets a
	// deferred switch-over re-pointed but left suspended until
	// resume-partners, so the migrated service's un-drained receive
	// queues never see partner traffic first (plug-forward cutover).
	spares              []spare
	suspended, deferred []suspendedSet
}

// spare is a partner QP's replacement, pre-connected to the migration
// destination and swapped in at switch-over.
type spare struct {
	qp *QP
	v  *verbs.QP
}

// suspendedSet is one session's QPs suspended for a migration.
type suspendedSet struct {
	s   *Session
	qps []*QP
}

func (m *migration) empty() bool {
	return len(m.staged) == 0 && m.plug == nil && !m.forward &&
		len(m.spares) == 0 && len(m.suspended) == 0 && len(m.deferred) == 0
}

// record returns the record of migration id, making it on first use.
func (d *Daemon) record(id string) *migration {
	m, ok := d.migs[id]
	if !ok {
		m = &migration{}
		d.migs[id] = m
	}
	return m
}

// settle drops the record of migration id once nothing is left in it.
func (d *Daemon) settle(id string) {
	if m, ok := d.migs[id]; ok && m.empty() {
		delete(d.migs, id)
	}
}

// Census is what a daemon holds for migrations, read without changing
// anything: once every migration is over, committed or aborted, each
// count is zero.
type Census struct {
	// Records counts migration records; Staged, Spares, Plugs and
	// Forwards what they hold. Suspended counts every suspended QP on the
	// host, the migration source's own included, which no record holds.
	Records, Staged, Spares, Suspended, Plugs, Forwards int
	// NSent counts n_sent announcements stashed for a physical QPN this
	// host has not installed.
	NSent int
}

// Census reads the host's migration state.
func (d *Daemon) Census() Census {
	c := Census{Records: len(d.migs), NSent: len(d.pendingNSent)}
	for _, m := range d.migs {
		c.Staged += len(m.staged)
		c.Spares += len(m.spares)
		if m.plug != nil {
			c.Plugs++
		}
		if m.forward {
			c.Forwards++
		}
	}
	for _, s := range d.sessions {
		for _, qp := range s.qps {
			if qp.suspended {
				c.Suspended++
			}
		}
	}
	return c
}

// EndpointName is the oob endpoint every MigrRDMA daemon listens on.
const EndpointName = "migrrdma"

// NewDaemon starts the MigrRDMA daemon on a host.
func NewDaemon(h *cluster.Host) *Daemon {
	d := &Daemon{
		host:         h,
		dev:          h.Dev,
		byPhys:       make(map[uint32]*Session),
		migs:         make(map[string]*migration),
		movedVQPN:    make(map[uint32]string),
		pendingNSent: make(map[uint32]uint64),
		wbsTimeout:   defaultWBSTimeout,
	}
	d.ep = newOOBAdapter(h, d.serve)
	if h.Mux != nil {
		// The tunnel endpoint is permanent (a registration, not a
		// metric, so snapshot hashes are unaffected); it only acts while
		// a plug-and-forward migration is in flight.
		h.Mux.Register(PortMigrFwd, d.onTunnelFrame)
	}
	return d
}

// Node returns the daemon's host node name.
func (d *Daemon) Node() string { return d.host.Name }

// registry returns the metrics registry sessions record into: the
// cluster-wide one when the host carries it, otherwise the device's own
// (detached) registry so instrumentation never needs nil checks.
func (d *Daemon) registry() *metrics.Registry {
	if d.host != nil && d.host.Metrics != nil {
		return d.host.Metrics
	}
	return d.dev.Metrics()
}

// Host returns the daemon's host.
func (d *Daemon) Host() *cluster.Host { return d.host }

// SetWBSTimeout bounds every wait-before-stop this daemon runs, for the
// migrated service and as a partner (defaultWBSTimeout until set).
func (d *Daemon) SetWBSTimeout(timeout time.Duration) { d.wbsTimeout = timeout }

// register adds a session to the daemon's registries.
func (d *Daemon) register(s *Session) {
	d.sessions = append(d.sessions, s)
	s.daemon = d
}

// unregister removes a session that closed or migrated away, and with it
// the session's share of every migration record: it may have closed
// between suspend and switch, or between a deferred switch and
// resume-partners, and a later abort or resume-partners must not replay
// intercepted work onto its QPs. The spares it held are returned for
// Close to destroy with their QPs; a migrating session partners no other
// migration, so adopt's call returns none.
func (d *Daemon) unregister(s *Session) []spare {
	d.sessions = slices.DeleteFunc(d.sessions, func(e *Session) bool { return e == s })
	for phys, owner := range d.byPhys {
		if owner == s {
			delete(d.byPhys, phys)
		}
	}
	var taken []spare
	ofS := func(set suspendedSet) bool { return set.s == s }
	for _, id := range sortedKeys(d.migs) {
		m := d.migs[id]
		m.spares = slices.DeleteFunc(m.spares, func(sp spare) bool {
			if sp.qp.sess == s {
				taken = append(taken, sp)
			}
			return sp.qp.sess == s
		})
		m.suspended = slices.DeleteFunc(m.suspended, ofS)
		m.deferred = slices.DeleteFunc(m.deferred, ofS)
		d.settle(id)
	}
	return taken
}

// mapQPN installs a physical→virtual QPN mapping for a session's QP,
// delivering any n_sent announcement that arrived ahead of it.
func (d *Daemon) mapQPN(phys, virt uint32, s *Session) {
	d.qpn.set(phys, virt)
	d.byPhys[phys] = s
	if n, ok := d.pendingNSent[phys]; ok {
		delete(d.pendingNSent, phys)
		s.deliverNSent(phys, n)
	}
}

// unmapQPN removes a physical QPN mapping (old QP fully drained).
func (d *Daemon) unmapQPN(phys uint32) {
	d.qpn.clear(phys)
	delete(d.byPhys, phys)
}

// translateQPN translates a physical QPN on this host's device.
func (d *Daemon) translateQPN(phys uint32) (uint32, bool) { return d.qpn.lookup(phys) }

// --- Wire messages -----------------------------------------------------------

type fetchRKeyReq struct {
	RQPN  uint32
	VRKey uint32
}

type fetchRKeyResp struct {
	Phys uint32
	Err  string
}

type fetchQPNReq struct{ VQPN uint32 }

type fetchQPNResp struct {
	Node  string // node the QP currently lives on
	Phys  uint32
	Moved string // non-empty: retry at this node
	Err   string
}

type nsentMsg struct {
	DstQPN uint32
	NSent  uint64
}

type suspendForReq struct {
	// MigID identifies the migration so the partner's wait-before-stop
	// result is stashed per migration.
	MigID string
	// SrcNode names the migration source. The partner selects QPs by
	// PartnerQPNs alone; the field stays on the wire so the control
	// message keeps its encoding.
	SrcNode string
	// PartnerQPNs lists this host's physical QPNs connected to the
	// migrating process; only these QPs are suspended.
	PartnerQPNs []uint32
}

type suspendForResp struct {
	ElapsedNS int64
	TimedOut  bool
}

// notifyPair is one (partner physical QPN, migrated virtual QPN) entry
// of the §3.2 notification message.
type notifyPair struct {
	PartnerQPN uint32
	VQPN       uint32
}

type notifyReq struct {
	MigID    string
	Proc     string
	DestNode string
	Pairs    []notifyPair
}

type connectNewReq struct {
	MigID       string
	Proc        string
	VQPN        uint32
	PartnerNode string
	PartnerQPN  uint32
}

type connectNewResp struct {
	DestQPN uint32
	Err     string
}

type switchReq struct {
	MigID    string
	Proc     string
	SrcNode  string
	DestNode string
}

// abortReq tells a node that a migration failed: it rolls back what its
// record of the migration holds (hAbort).
type abortReq struct {
	MigID   string
	Proc    string
	SrcNode string
}

// --- Handlers ----------------------------------------------------------------

// daemonHandlers is the control protocol: request kind → the method
// that serves it. The table and the oob kind set made from it are
// static, so a daemon registers one handler (serve) with its endpoint,
// not a method value, an adapter closure and a proc name per kind.
var daemonHandlers = map[string]func(d *Daemon, m oob.Msg) []byte{
	"hello":           func(*Daemon, oob.Msg) []byte { return []byte("ok") },
	"fetch-rkey":      (*Daemon).hFetchRKey,
	"fetch-qpn":       (*Daemon).hFetchQPN,
	"suspend-for":     (*Daemon).hSuspendFor,
	"notify-migr":     (*Daemon).hNotify,
	"connect-new":     (*Daemon).hConnectNew,
	"switch-to":       (*Daemon).hSwitch,
	"switch-defer":    (*Daemon).hSwitchDefer,
	"resume-partners": (*Daemon).hResumePartners,
	"nsent":           (*Daemon).hNSent,
	"abort":           (*Daemon).hAbort,
}

var daemonKinds = func() oob.Kinds {
	kinds := make([]string, 0, len(daemonHandlers))
	for kind := range daemonHandlers {
		kinds = append(kinds, kind)
	}
	return oob.NewKinds(kinds...)
}()

// serve is the daemon's handler for every kind of daemonKinds.
func (d *Daemon) serve(m oob.Msg) []byte {
	return daemonHandlers[m.Kind](d, m)
}

func (d *Daemon) hFetchRKey(msg oob.Msg) []byte {
	var req fetchRKeyReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return msg.Reply(fetchRKeyResp{Err: err.Error()})
	}
	s, ok := d.byPhys[req.RQPN]
	if !ok {
		return msg.Reply(fetchRKeyResp{Err: fmt.Sprintf("no session owns QPN %#x", req.RQPN)})
	}
	phys, ok := s.rkeys.lookup(req.VRKey)
	if !ok {
		return msg.Reply(fetchRKeyResp{Err: fmt.Sprintf("unknown virtual rkey %#x", req.VRKey)})
	}
	return msg.Reply(fetchRKeyResp{Phys: phys})
}

func (d *Daemon) hFetchQPN(msg oob.Msg) []byte {
	var req fetchQPNReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return msg.Reply(fetchQPNResp{Err: err.Error()})
	}
	// Find the session QP whose *virtual* QPN matches.
	for _, s := range d.sessions {
		if qp, ok := s.byVQPN[req.VQPN]; ok {
			return msg.Reply(fetchQPNResp{Node: d.Node(), Phys: qp.v.QPN()})
		}
	}
	if node, ok := d.movedVQPN[req.VQPN]; ok {
		return msg.Reply(fetchQPNResp{Moved: node})
	}
	return msg.Reply(fetchQPNResp{Err: fmt.Sprintf("unknown virtual QPN %#x", req.VQPN)})
}

func (d *Daemon) hNSent(msg oob.Msg) []byte {
	var m nsentMsg
	if err := codec.Decode(msg.Body, &m); err != nil {
		return nil
	}
	d.deliverOrStashNSent(m.DstQPN, m.NSent)
	return nil
}

// deliverOrStashNSent routes a peer's n_sent to the owning session, or
// stashes it until the physical QPN is mapped (it may belong to a spare
// QP whose switch-over has not happened yet).
func (d *Daemon) deliverOrStashNSent(phys uint32, nSent uint64) {
	if s, ok := d.byPhys[phys]; ok {
		s.deliverNSent(phys, nSent)
		return
	}
	d.pendingNSent[phys] = nSent
}

// hSuspendFor runs the partner side of stop-and-copy: suspend the QPs
// serving the migrating process (the request lists their physical QPNs)
// and conduct wait-before-stop, blocking the caller until it
// terminates. Several of these can run concurrently on one host — one
// per in-flight migration this host partners — each draining only its
// own migration's QPs.
func (d *Daemon) hSuspendFor(msg oob.Msg) []byte {
	var req suspendForReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return msg.Reply(suspendForResp{})
	}
	var worst WBSResult
	for _, s := range d.sessions {
		qps := s.SuspendByPhys(req.PartnerQPNs)
		if len(qps) == 0 {
			continue
		}
		m := d.record(req.MigID)
		m.suspended = append(m.suspended, suspendedSet{s: s, qps: qps})
		res := s.WaitBeforeStop(qps, d.wbsTimeout)
		if res.Elapsed > worst.Elapsed {
			worst = res
		}
	}
	return msg.Reply(suspendForResp{ElapsedNS: int64(worst.Elapsed), TimedOut: worst.TimedOut})
}

// hNotify implements the partner pre-setup of §3.2: for each listed
// local QP, create a spare QP sharing the same CQ/PD/SRQ, connect it to
// the migration destination, and stash it for the later switch-over.
func (d *Daemon) hNotify(msg oob.Msg) []byte {
	var req notifyReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return []byte(err.Error())
	}
	for _, pair := range req.Pairs {
		s, ok := d.byPhys[pair.PartnerQPN]
		if !ok {
			continue
		}
		qp := s.qpByPhys(pair.PartnerQPN)
		if qp == nil {
			continue
		}
		// The old and new QP share the same CQ so completion routing
		// stays transparent; PD and SRQ are likewise reused (§3.2).
		nv := s.ctx.CreateQP(qp.pd.v, qp.typ, qp.sendCQ.v, qp.recvCQ.v, srqV(qp.srq), qp.caps)
		if err := d.connectSpare(nv, req, pair.VQPN); err != nil {
			// Not in the record yet, so no abort would find it.
			nv.Destroy()
			return []byte(err.Error())
		}
		m := d.record(req.MigID)
		m.spares = append(m.spares, spare{qp: qp, v: nv})
	}
	return nil
}

// connectSpare brings the spare QP nv to RTS, connected to the QP the
// destination staged for vqpn.
func (d *Daemon) connectSpare(nv *verbs.QP, req notifyReq, vqpn uint32) error {
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
		return err
	}
	var cr connectNewResp
	if err := d.ask(req.DestNode, "connect-new", connectNewReq{
		MigID: req.MigID, Proc: req.Proc, VQPN: vqpn,
		PartnerNode: d.Node(), PartnerQPN: nv.QPN(),
	}, &cr); err != nil {
		return fmt.Errorf("connect-new: %w", err)
	}
	if cr.Err != "" {
		return fmt.Errorf("connect-new: %s", cr.Err)
	}
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: req.DestNode, RemoteQPN: cr.DestQPN}); err != nil {
		return err
	}
	return nv.Modify(rnic.ModifyAttr{State: rnic.StateRTS})
}

// hConnectNew runs on the migration destination: the partner asks the
// staged QP for vqpn to connect to its fresh QP.
func (d *Daemon) hConnectNew(msg oob.Msg) []byte {
	var req connectNewReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return msg.Reply(connectNewResp{Err: err.Error()})
	}
	var st *Staged
	if m, ok := d.migs[req.MigID]; ok {
		st = m.staged[req.Proc]
	}
	if st == nil {
		return msg.Reply(connectNewResp{Err: "no staged restore for " + req.Proc})
	}
	nv, ok := st.qpByVQPN[req.VQPN]
	if !ok {
		keys := make([]uint32, 0, len(st.qpByVQPN))
		for k := range st.qpByVQPN {
			keys = append(keys, k)
		}
		return msg.Reply(connectNewResp{Err: fmt.Sprintf("no staged QP for vqpn %#x (have %#x, metas %d, qps %d)", req.VQPN, keys, len(st.qpMeta), len(st.qps))})
	}
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: req.PartnerNode, RemoteQPN: req.PartnerQPN}); err != nil {
		return msg.Reply(connectNewResp{Err: err.Error()})
	}
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
		return msg.Reply(connectNewResp{Err: err.Error()})
	}
	return msg.Reply(connectNewResp{DestQPN: nv.QPN()})
}

// hSwitch runs on partners after the destination restore completed:
// activate the spare QPs (map the virtual QPN to the new QP, §3.2),
// invalidate remote caches pointing at the source, replay pending
// receives and post intercepted WRs. Only the spares of this request's
// migration switch: a host partnering several concurrent migrations
// holds one record per migration, and activating another migration's
// spares here would connect QPs whose destination has not finished
// restoring.
func (d *Daemon) hSwitch(msg oob.Msg) []byte {
	return d.switchTo(msg.Body, false)
}

// hSwitchDefer is hSwitch for the plug-forward cutover: the spare QPs
// are activated and remote caches invalidated, but the QPs stay
// suspended (and the old QPs alive) until hResumePartners — the
// migrated service thaws first, so the resumed partners never race its
// empty receive queues.
func (d *Daemon) hSwitchDefer(msg oob.Msg) []byte {
	return d.switchTo(msg.Body, true)
}

// switchTo swaps the record's spares in one session at a time, taking
// each session's share off the record as it goes: Resume may block, and
// a session that closes meanwhile takes its spares with it (unregister).
func (d *Daemon) switchTo(body []byte, deferResume bool) []byte {
	var req switchReq
	if err := codec.Decode(body, &req); err != nil {
		return []byte(err.Error())
	}
	if m, ok := d.migs[req.MigID]; ok {
		d.sortSpares(m.spares)
	}
	for {
		m, ok := d.migs[req.MigID]
		if !ok || len(m.spares) == 0 {
			break
		}
		s, n := m.spares[0].qp.sess, 1
		for n < len(m.spares) && m.spares[n].qp.sess == s {
			n++
		}
		// Invalidate before the swap: it clears the rkey cache of QPs still
		// pointing at the source, which no switched QP does after it.
		s.InvalidateRemoteCaches(req.SrcNode)
		resumed := make([]*QP, n)
		for i, sp := range m.spares[:n] {
			qp := sp.qp
			qp.oldV, qp.v = qp.v, sp.v
			// The wrapper now stands for the spare QP: re-key it to the
			// spare's roadmap record so a later migration of this
			// process replays the QP that actually exists (the old QP's
			// creation record disappears when it is destroyed below).
			delete(s.qps, qp.id)
			qp.id = qp.v.ID
			s.qps[qp.id] = qp
			// Old physical → virtual stays mapped until the old QP's
			// completions drain; new physical maps to the same virtual.
			d.mapQPN(qp.v.QPN(), qp.vqpn, s)
			resumed[i] = qp
		}
		m.spares = m.spares[n:]
		if deferResume {
			m.deferred = append(m.deferred, suspendedSet{s: s, qps: resumed})
			continue
		}
		if err := s.Resume(resumed); err != nil {
			return []byte(err.Error())
		}
		// Wait-before-stop guaranteed the old QPs are drained; retire
		// them now (§3.4 "old QPs ... are destroyed").
		d.retireOldQPs(resumed)
	}
	if m, ok := d.migs[req.MigID]; ok && !deferResume {
		// The migration committed; the suspension record is spent.
		m.suspended = nil
	}
	d.settle(req.MigID)
	return nil
}

// sortSpares puts spares in the order they are switched or destroyed
// in, which the chaos goldens pin: host-session order, then virtual QPN.
func (d *Daemon) sortSpares(spares []spare) {
	if len(spares) < 2 {
		return
	}
	rank := make(map[*Session]int, len(d.sessions))
	for i, s := range d.sessions {
		rank[s] = i
	}
	slices.SortFunc(spares, func(a, b spare) int {
		return cmp.Or(cmp.Compare(rank[a.qp.sess], rank[b.qp.sess]), cmp.Compare(a.qp.vqpn, b.qp.vqpn))
	})
}

// retireOldQPs destroys the pre-switch incarnation of re-pointed QPs.
func (d *Daemon) retireOldQPs(qps []*QP) {
	for _, qp := range qps {
		if qp.oldV != nil {
			oldPhys := qp.oldV.QPN()
			qp.oldV.Destroy()
			d.unmapQPN(oldPhys)
			qp.oldV = nil
		}
	}
}

// hResumePartners completes a deferred switch-over: resume the
// re-pointed QPs (replaying their intercepted work against the now-live
// migrated service) and retire the old incarnations.
func (d *Daemon) hResumePartners(msg oob.Msg) []byte {
	var req switchReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return []byte(err.Error())
	}
	m, ok := d.migs[req.MigID]
	if !ok {
		return nil
	}
	sets := m.deferred
	m.deferred = nil
	for _, set := range sets {
		if err := set.s.Resume(set.qps); err != nil {
			return []byte(err.Error())
		}
		d.retireOldQPs(set.qps)
	}
	if m, ok := d.migs[req.MigID]; ok {
		m.suspended = nil
	}
	d.settle(req.MigID)
	return nil
}

// hAbort rolls back this node's part in a failed migration, all of it
// read off the migration's record, so other in-flight migrations sharing
// this node are untouched: the spares pre-established for it are
// destroyed, the QPs suspended on its behalf resume (replaying
// intercepted work), the sets a deferred switch-over left suspended are
// dropped, and a restore this node stages for it is discarded.
func (d *Daemon) hAbort(msg oob.Msg) []byte {
	var req abortReq
	if err := codec.Decode(msg.Body, &req); err != nil {
		return []byte(err.Error())
	}
	m, ok := d.migs[req.MigID]
	if !ok {
		return nil
	}
	// The spares connect to a destination that is being torn down.
	d.sortSpares(m.spares)
	for _, sp := range m.spares {
		delete(d.pendingNSent, sp.v.QPN())
		sp.v.Destroy()
	}
	m.spares = nil
	// Un-suspend the QPs this host parked for the migration's
	// stop-and-copy. Resume replays their intercepted posts and pending
	// receives on the original (still connected) QPs.
	for _, set := range m.suspended {
		var still []*QP
		for _, qp := range set.qps {
			if qp.suspended {
				still = append(still, qp)
			}
		}
		if len(still) == 0 {
			continue
		}
		if err := set.s.Resume(still); err != nil {
			return []byte(err.Error())
		}
	}
	if m, ok = d.migs[req.MigID]; !ok {
		return nil
	}
	m.suspended, m.deferred = nil, nil
	// This node may also be the migration's destination (and a partner
	// of the same process): discard the staged restore.
	if st := m.staged[req.Proc]; st != nil {
		st.abort()
		d.unstage(req.MigID, st)
	}
	d.settle(req.MigID)
	return nil
}

// sortedQPs returns the session's QPs in virtual-QPN order for
// deterministic iteration.
func (s *Session) sortedQPs() []*QP {
	out := make([]*QP, 0, len(s.qps))
	for _, qp := range s.qps {
		out = append(out, qp)
	}
	sortQPs(out)
	return out
}

// qpByPhys finds the session QP with the given physical QPN.
func (s *Session) qpByPhys(phys uint32) *QP {
	for _, qp := range s.qps {
		if qp.v.QPN() == phys {
			return qp
		}
	}
	return nil
}

func srqV(srq *SRQ) *verbs.SRQ {
	if srq == nil {
		return nil
	}
	return srq.v
}

// --- Client helpers ------------------------------------------------------------

// call issues a blocking control RPC to another node's daemon; a body
// is what oob.Endpoint.Send takes.
func (d *Daemon) call(node, kind string, body any) ([]byte, bool) {
	return d.ep.Call(node, kind, body)
}

// ask is call for a request whose reply is a message: it decodes the
// reply into resp.
func (d *Daemon) ask(node, kind string, req, resp any) error {
	data, ok := d.ep.Call(node, kind, req)
	if !ok {
		return fmt.Errorf("%s unreachable", node)
	}
	return codec.Decode(data, resp)
}

// fetchRKey asks the node owning physical QPN rqpn to translate vrkey.
func (d *Daemon) fetchRKey(node string, rqpn, vrkey uint32) (uint32, error) {
	if node == d.Node() {
		// Loopback: the peer process is on the same host.
		if s, ok := d.byPhys[rqpn]; ok {
			if phys, ok := s.rkeys.lookup(vrkey); ok {
				return phys, nil
			}
		}
		return 0, fmt.Errorf("core: local rkey fetch failed for %#x", vrkey)
	}
	var r fetchRKeyResp
	if err := d.ask(node, "fetch-rkey", fetchRKeyReq{RQPN: rqpn, VRKey: vrkey}, &r); err != nil {
		return 0, fmt.Errorf("core: rkey fetch: %w", err)
	}
	if r.Err != "" {
		return 0, fmt.Errorf("core: rkey fetch: %s", r.Err)
	}
	return r.Phys, nil
}

// fetchQPN resolves a (node, virtual QPN) to its current node and
// physical QPN, following at most two relocation redirects: a process
// migrated A→B→C leaves one on A and one on B.
func (d *Daemon) fetchQPN(node string, vqpn uint32) (string, uint32, error) {
	for hops := 0; hops < 3; hops++ {
		var r fetchQPNResp
		if err := d.ask(node, "fetch-qpn", fetchQPNReq{VQPN: vqpn}, &r); err != nil {
			return "", 0, fmt.Errorf("core: qpn fetch: %w", err)
		}
		if r.Moved != "" {
			node = r.Moved
			continue
		}
		if r.Err != "" {
			return "", 0, fmt.Errorf("core: qpn fetch: %s", r.Err)
		}
		return r.Node, r.Phys, nil
	}
	return "", 0, fmt.Errorf("core: qpn fetch: too many redirects")
}

// sendNSent delivers this side's n_sent to the peer QP (§3.4).
func (d *Daemon) sendNSent(node string, dstQPN uint32, nSent uint64) {
	if node == d.Node() {
		d.deliverOrStashNSent(dstQPN, nSent)
		return
	}
	d.ep.Send(node, "nsent", nsentMsg{DstQPN: dstQPN, NSent: nSent})
}

// Hello probes whether node runs a MigrRDMA daemon (§6 negotiation).
func (d *Daemon) Hello(node string) bool {
	if node == d.Node() {
		return true
	}
	_, ok := d.call(node, "hello", nil)
	return ok
}

// PeerSupports reports (with caching) whether node runs MigrRDMA.
func (d *Daemon) PeerSupports(node string) bool {
	if v, ok := d.helloCache[node]; ok {
		return v
	}
	v := d.Hello(node)
	if d.helloCache == nil {
		d.helloCache = make(map[string]bool)
	}
	d.helloCache[node] = v
	return v
}
