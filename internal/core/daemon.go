package core

import (
	"fmt"
	"sort"

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

	// staging holds restores in progress on this host (the migration
	// destination side), keyed by stagingKey — migration ID plus process
	// name — so concurrent restores of identically named processes from
	// different migrations never collide.
	staging map[string]*Staged

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

	wbs        WBSConfig
	helloCache map[string]bool

	// suspendedFor records, per migration ID, the QP sets this host
	// suspended on that migration's behalf (hSuspendFor), so an abort can
	// resume exactly those and a switch-over can drop the record.
	suspendedFor map[string][]suspendedSet

	// plugFwd is the destination-side plug state of an in-progress
	// plug-and-forward migration (one at a time per host); fwdMig names
	// the migration this host currently forwards for as the source side.
	plugFwd *plugFwdState
	fwdMig  string

	// pendingResume stashes, per migration ID, the partner QP sets a
	// deferred switch-over re-pointed but left suspended (plug-forward
	// cutover): hResumePartners resumes them once the migrated service
	// is live, so its un-drained receive queues never trigger RNR.
	pendingResume map[string][]suspendedSet
}

// EndpointName is the oob endpoint every MigrRDMA daemon listens on.
const EndpointName = "migrrdma"

// NewDaemon starts the MigrRDMA daemon on a host.
func NewDaemon(h *cluster.Host) *Daemon {
	d := &Daemon{
		host:          h,
		dev:           h.Dev,
		byPhys:        make(map[uint32]*Session),
		staging:       make(map[string]*Staged),
		movedVQPN:     make(map[uint32]string),
		pendingNSent:  make(map[uint32]uint64),
		wbs:           DefaultWBSConfig(),
		suspendedFor:  make(map[string][]suspendedSet),
		pendingResume: make(map[string][]suspendedSet),
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

// SetWBSConfig overrides wait-before-stop tuning.
func (d *Daemon) SetWBSConfig(cfg WBSConfig) { d.wbs = cfg }

// register adds a session to the daemon's registries.
func (d *Daemon) register(s *Session) {
	d.sessions = append(d.sessions, s)
	s.daemon = d
}

// unregister removes a migrated-away session.
func (d *Daemon) unregister(s *Session) {
	for i, e := range d.sessions {
		if e == s {
			d.sessions = append(d.sessions[:i], d.sessions[i+1:]...)
			break
		}
	}
	for phys, owner := range d.byPhys {
		if owner == s {
			delete(d.byPhys, phys)
		}
	}
	// Per-migration stashes may still reference the session (it closed
	// between suspend and switch, or between a deferred switch and
	// resume-partners). A later hAbort/hResumePartners must not replay
	// intercepted work onto its destroyed QPs.
	dropSession(d.suspendedFor, s)
	dropSession(d.pendingResume, s)
}

// dropSession filters one session's QP sets out of a per-migration
// stash, deleting migration entries that become empty.
func dropSession(stash map[string][]suspendedSet, s *Session) {
	for mig, sets := range stash {
		kept := sets[:0]
		for _, set := range sets {
			if set.s != s {
				kept = append(kept, set)
			}
		}
		if len(kept) == 0 {
			delete(stash, mig)
		} else {
			stash[mig] = kept
		}
	}
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
	MigID   string
	SrcNode string
	// PartnerQPNs lists this host's physical QPNs connected to the
	// migrating process; only these QPs are suspended. Empty falls back
	// to suspending every QP toward SrcNode — correct only while no
	// other migration involves that node.
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

// abortReq tells a node that a migration failed: destroy the spare QPs
// stashed for it, resume the QPs suspended on its behalf, and clear the
// per-migration stashes (staging slot, partner-WBS result).
type abortReq struct {
	MigID   string
	Proc    string
	SrcNode string
}

// suspendedSet is one session's QPs suspended for a migration.
type suspendedSet struct {
	s   *Session
	qps []*QP
}

// --- Handlers ----------------------------------------------------------------

// daemonHandlers is the control protocol: request kind → the method
// that serves it. The table and the oob kind set made from it are
// static, so a daemon registers one handler (serve) with its endpoint,
// not a method value, an adapter closure and a proc name per kind.
var daemonHandlers = map[string]func(d *Daemon, fromNode string, body []byte) []byte{
	"hello":           func(*Daemon, string, []byte) []byte { return []byte("ok") },
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
	return daemonHandlers[m.Kind](d, m.FromNode, m.Body)
}

func (d *Daemon) hFetchRKey(_ string, body []byte) []byte {
	var req fetchRKeyReq
	if err := codec.Decode(body, &req); err != nil {
		return codec.MustEncode(fetchRKeyResp{Err: err.Error()})
	}
	s, ok := d.byPhys[req.RQPN]
	if !ok {
		return codec.MustEncode(fetchRKeyResp{Err: fmt.Sprintf("no session owns QPN %#x", req.RQPN)})
	}
	phys, ok := s.rkeys.lookup(req.VRKey)
	if !ok {
		return codec.MustEncode(fetchRKeyResp{Err: fmt.Sprintf("unknown virtual rkey %#x", req.VRKey)})
	}
	return codec.MustEncode(fetchRKeyResp{Phys: phys})
}

func (d *Daemon) hFetchQPN(_ string, body []byte) []byte {
	var req fetchQPNReq
	if err := codec.Decode(body, &req); err != nil {
		return codec.MustEncode(fetchQPNResp{Err: err.Error()})
	}
	// Find the session QP whose *virtual* QPN matches.
	for _, s := range d.sessions {
		if qp, ok := s.byVQPN[req.VQPN]; ok {
			return codec.MustEncode(fetchQPNResp{Node: d.Node(), Phys: qp.v.QPN()})
		}
	}
	if node, ok := d.movedVQPN[req.VQPN]; ok {
		return codec.MustEncode(fetchQPNResp{Moved: node})
	}
	return codec.MustEncode(fetchQPNResp{Err: fmt.Sprintf("unknown virtual QPN %#x", req.VQPN)})
}

func (d *Daemon) hNSent(_ string, body []byte) []byte {
	var m nsentMsg
	if err := codec.Decode(body, &m); err != nil {
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
func (d *Daemon) hSuspendFor(_ string, body []byte) []byte {
	var req suspendForReq
	if err := codec.Decode(body, &req); err != nil {
		return codec.MustEncode(suspendForResp{})
	}
	var worst WBSResult
	for _, s := range d.sessions {
		var qps []*QP
		if len(req.PartnerQPNs) > 0 {
			qps = s.SuspendByPhys(req.PartnerQPNs)
		} else {
			qps = s.SuspendPeer(req.SrcNode)
		}
		if len(qps) == 0 {
			continue
		}
		d.suspendedFor[req.MigID] = append(d.suspendedFor[req.MigID], suspendedSet{s: s, qps: qps})
		res := s.WaitBeforeStop(qps, d.wbs)
		if res.Elapsed > worst.Elapsed {
			worst = res
		}
	}
	return codec.MustEncode(suspendForResp{ElapsedNS: int64(worst.Elapsed), TimedOut: worst.TimedOut})
}

// hNotify implements the partner pre-setup of §3.2: for each listed
// local QP, create a spare QP sharing the same CQ/PD/SRQ, connect it to
// the migration destination, and stash it for the later switch-over.
func (d *Daemon) hNotify(_ string, body []byte) []byte {
	var req notifyReq
	if err := codec.Decode(body, &req); err != nil {
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
			// Not in pendingNew yet, so no abort would find it.
			nv.Destroy()
			return []byte(err.Error())
		}
		qp.pendingNew = nv
		qp.pendingNewMig = req.MigID
	}
	return nil
}

// connectSpare brings the spare QP nv to RTS, connected to the QP the
// destination staged for vqpn.
func (d *Daemon) connectSpare(nv *verbs.QP, req notifyReq, vqpn uint32) error {
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
		return err
	}
	resp, ok := d.call(req.DestNode, "connect-new", codec.MustEncode(connectNewReq{
		MigID: req.MigID, Proc: req.Proc, VQPN: vqpn,
		PartnerNode: d.Node(), PartnerQPN: nv.QPN(),
	}))
	if !ok {
		return fmt.Errorf("connect-new: no response from %s", req.DestNode)
	}
	var cr connectNewResp
	if err := codec.Decode(resp, &cr); err != nil {
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
func (d *Daemon) hConnectNew(_ string, body []byte) []byte {
	var req connectNewReq
	if err := codec.Decode(body, &req); err != nil {
		return codec.MustEncode(connectNewResp{Err: err.Error()})
	}
	st, ok := d.staging[stagingKey(req.MigID, req.Proc)]
	if !ok {
		// A restore staged without a migration ID is keyed by process
		// name alone.
		st, ok = d.staging[req.Proc]
	}
	if !ok {
		return codec.MustEncode(connectNewResp{Err: "no staged restore for " + req.Proc})
	}
	nv, ok := st.qpByVQPN[req.VQPN]
	if !ok {
		keys := make([]uint32, 0, len(st.qpByVQPN))
		for k := range st.qpByVQPN {
			keys = append(keys, k)
		}
		return codec.MustEncode(connectNewResp{Err: fmt.Sprintf("no staged QP for vqpn %#x (have %#x, metas %d, qps %d)", req.VQPN, keys, len(st.qpMeta), len(st.qps))})
	}
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: req.PartnerNode, RemoteQPN: req.PartnerQPN}); err != nil {
		return codec.MustEncode(connectNewResp{Err: err.Error()})
	}
	if err := nv.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
		return codec.MustEncode(connectNewResp{Err: err.Error()})
	}
	return codec.MustEncode(connectNewResp{DestQPN: nv.QPN()})
}

// hSwitch runs on partners after the destination restore completed:
// activate the spare QPs (map the virtual QPN to the new QP, §3.2),
// invalidate remote caches pointing at the source, replay pending
// receives and post intercepted WRs. Only spares stashed for this
// request's migration ID switch: a host partnering several concurrent
// migrations holds one pendingNew set per migration, and activating
// another migration's spares here would connect QPs whose destination
// has not finished restoring.
func (d *Daemon) hSwitch(_ string, body []byte) []byte {
	return d.switchTo(body, false)
}

// hSwitchDefer is hSwitch for the plug-forward cutover: the spare QPs
// are activated and remote caches invalidated, but the QPs stay
// suspended (and the old QPs alive) until hResumePartners — the
// migrated service thaws first, so the resumed partners never race its
// empty receive queues.
func (d *Daemon) hSwitchDefer(_ string, body []byte) []byte {
	return d.switchTo(body, true)
}

func (d *Daemon) switchTo(body []byte, deferResume bool) []byte {
	var req switchReq
	if err := codec.Decode(body, &req); err != nil {
		return []byte(err.Error())
	}
	for _, s := range d.sessions {
		var resumed []*QP
		for _, qp := range s.sortedQPs() {
			if qp.pendingNew == nil || qp.pendingNewMig != req.MigID {
				continue
			}
			old := qp.v
			qp.oldV = old
			qp.v = qp.pendingNew
			qp.pendingNew = nil
			qp.pendingNewMig = ""
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
			resumed = append(resumed, qp)
		}
		if len(resumed) == 0 {
			continue
		}
		s.InvalidateRemoteCaches(req.SrcNode)
		if deferResume {
			d.pendingResume[req.MigID] = append(d.pendingResume[req.MigID],
				suspendedSet{s: s, qps: resumed})
			continue
		}
		if err := s.Resume(resumed); err != nil {
			return []byte(err.Error())
		}
		// Wait-before-stop guaranteed the old QPs are drained; retire
		// them now (§3.4 "old QPs ... are destroyed").
		d.retireOldQPs(resumed)
	}
	if !deferResume {
		// The migration committed; the suspension record is spent.
		delete(d.suspendedFor, req.MigID)
	}
	return nil
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
func (d *Daemon) hResumePartners(_ string, body []byte) []byte {
	var req switchReq
	if err := codec.Decode(body, &req); err != nil {
		return []byte(err.Error())
	}
	sets := d.pendingResume[req.MigID]
	delete(d.pendingResume, req.MigID)
	for _, set := range sets {
		if err := set.s.Resume(set.qps); err != nil {
			return []byte(err.Error())
		}
		d.retireOldQPs(set.qps)
	}
	delete(d.suspendedFor, req.MigID)
	return nil
}

// hAbort rolls back this node's participation in a failed migration:
// spare QPs pre-established for it are destroyed, QPs suspended on its
// behalf resume (replaying intercepted work), and the per-migration
// stashes — staged restore slot, pending-switch markers — are cleared. Every step is keyed by the migration ID, so
// other in-flight migrations sharing this node are untouched.
func (d *Daemon) hAbort(_ string, body []byte) []byte {
	var req abortReq
	if err := codec.Decode(body, &req); err != nil {
		return []byte(err.Error())
	}
	// Drop the pending-switch markers: the spares connect to a
	// destination that is being torn down.
	for _, s := range d.sessions {
		for _, qp := range s.sortedQPs() {
			if qp.pendingNew == nil || qp.pendingNewMig != req.MigID {
				continue
			}
			spare := qp.pendingNew
			qp.pendingNew = nil
			qp.pendingNewMig = ""
			delete(d.pendingNSent, spare.QPN())
			spare.Destroy()
		}
	}
	// Un-suspend the QPs this host parked for the migration's
	// stop-and-copy. Resume replays their intercepted posts and pending
	// receives on the original (still connected) QPs.
	for _, set := range d.suspendedFor[req.MigID] {
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
	delete(d.suspendedFor, req.MigID)
	// A deferred switch-over that never reached resume-partners leaves
	// its re-pointed-but-suspended sets stashed; the abort owns them now.
	delete(d.pendingResume, req.MigID)
	// If this node also stages the migration's restore (it may be the
	// destination of the aborted migration and a partner of the same
	// process), discard the slot.
	if st, ok := d.staging[stagingKey(req.MigID, req.Proc)]; ok {
		st.abort()
	}
	return nil
}

// StagedRestores reports how many restores are currently staged on this
// host. The chaos residue census asserts it is zero once any migration,
// committed or aborted, is over.
func (d *Daemon) StagedRestores() int { return len(d.staging) }

// PendingSpares counts partner-side spare QPs stashed on this host for
// the given migration ID; an empty ID counts every migration's spares.
func (d *Daemon) PendingSpares(migID string) int {
	n := 0
	for _, s := range d.sessions {
		for _, qp := range s.qps {
			if qp.pendingNew != nil && (migID == "" || qp.pendingNewMig == migID) {
				n++
			}
		}
	}
	return n
}

// SuspendedQPs counts QPs currently suspended across this host's
// sessions. After a completed or aborted migration it must be zero.
func (d *Daemon) SuspendedQPs() int {
	n := 0
	for _, s := range d.sessions {
		for _, qp := range s.qps {
			if qp.suspended {
				n++
			}
		}
	}
	return n
}

// sortedQPs returns the session's QPs in virtual-QPN order for
// deterministic iteration.
func (s *Session) sortedQPs() []*QP {
	out := make([]*QP, 0, len(s.qps))
	for _, qp := range s.qps {
		out = append(out, qp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].vqpn < out[j].vqpn })
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

// call issues a blocking control RPC to another node's daemon.
func (d *Daemon) call(node, kind string, body []byte) ([]byte, bool) {
	return d.ep.Call(node, kind, body)
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
	resp, ok := d.call(node, "fetch-rkey", codec.MustEncode(fetchRKeyReq{RQPN: rqpn, VRKey: vrkey}))
	if !ok {
		return 0, fmt.Errorf("core: rkey fetch: %s unreachable", node)
	}
	var r fetchRKeyResp
	if err := codec.Decode(resp, &r); err != nil {
		return 0, err
	}
	if r.Err != "" {
		return 0, fmt.Errorf("core: rkey fetch: %s", r.Err)
	}
	return r.Phys, nil
}

// fetchQPN resolves a (node, virtual QPN) to its current node and
// physical QPN, following at most one relocation redirect.
func (d *Daemon) fetchQPN(node string, vqpn uint32) (string, uint32, error) {
	for hops := 0; hops < 3; hops++ {
		resp, ok := d.call(node, "fetch-qpn", codec.MustEncode(fetchQPNReq{VQPN: vqpn}))
		if !ok {
			return "", 0, fmt.Errorf("core: qpn fetch: %s unreachable", node)
		}
		var r fetchQPNResp
		if err := codec.Decode(resp, &r); err != nil {
			return "", 0, err
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
	d.ep.Send(node, "nsent", codec.MustEncode(nsentMsg{DstQPN: dstQPN, NSent: nSent}))
}

// stagingKey keys an in-progress restore: migration ID plus process
// name when an ID is known, the bare process name otherwise.
func stagingKey(migID, proc string) string {
	if migID != "" {
		return migID + "/" + proc
	}
	return proc
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
