package core

import (
	"fmt"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/criu"
	"migrrdma/internal/task"
)

// Plugin is the MigrRDMA CRIU plugin (§4): it checkpoints the
// indirection layer on the source and rebuilds equivalent RDMA
// communications on the destination using the Table-3 restore calls.
// One Plugin instance drives one migration. runc calls its dump and
// restore hooks around criu's own, in managed procs; every hook may
// block.
type Plugin struct {
	Src, Dst *Daemon

	// ID identifies the migration this plugin drives. It keys the
	// migration's record on every daemon taking part (spare QPs, staged
	// restores, plug, forwarding rule), so one node can take part in
	// several overlapping migrations.
	ID string

	sess       *Session
	staged     *Staged
	partnerWBS WBSResult
	// adopted records that adopt() moved the session onto the
	// destination daemon; AbortAdoption uses it to decide whether the
	// move must be reversed.
	adopted bool
}

// NewPlugin creates a plugin for migrating a process from Src's host to
// Dst's host.
func NewPlugin(src, dst *Daemon) *Plugin {
	return &Plugin{Src: src, Dst: dst}
}

// Session returns the session being migrated (available after Attach,
// PreDump or FinalDump).
func (pl *Plugin) Session() *Session { return pl.sess }

// Attach binds the plugin to the process being migrated.
func (pl *Plugin) Attach(p *task.Process) error {
	s, err := sessionOf(p)
	if err != nil {
		return err
	}
	pl.sess = s
	return nil
}

// sessionOf extracts the MigrRDMA session from a process.
func sessionOf(p *task.Process) (*Session, error) {
	s, ok := p.Attachment.(*Session)
	if !ok || s == nil {
		return nil, fmt.Errorf("core: process %s has no MigrRDMA session", p.Name)
	}
	return s, nil
}

// PreDump checkpoints the full RDMA roadmap at the start of pre-copy
// (Fig. 2b ①').
func (pl *Plugin) PreDump(p *task.Process) ([]byte, error) {
	s, err := sessionOf(p)
	if err != nil {
		return nil, err
	}
	pl.sess = s
	return encodeBlob(s.Checkpoint(false))
}

// FinalDump checkpoints the difference since PreDump plus the final
// virtualization metadata (Fig. 2b ⑤').
func (pl *Plugin) FinalDump(p *task.Process) ([]byte, error) {
	s, err := sessionOf(p)
	if err != nil {
		return nil, err
	}
	pl.sess = s
	return encodeBlob(s.Checkpoint(true))
}

// PreRestore runs at the start of partial restore on the destination
// (Fig. 2b ②'): it claims MR-backing memory at its original virtual
// addresses, using img's memory table and pages (§3.2); it is quick and
// must run before CRIU's temporary mappings. The long part — replaying
// the roadmap and partner notification — happens in RunPreSetup, which
// overlaps memory pre-copy.
func (pl *Plugin) PreRestore(r *criu.Restore, img *criu.Image, blob []byte) error {
	b, err := DecodeBlob(blob)
	if err != nil {
		return err
	}
	st, err := pl.Dst.RestoreContextFor(r, img, b, pl.ID)
	if err != nil {
		return err
	}
	pl.staged = st
	return nil
}

// RunPreSetup replays the roadmap on the destination device and then
// runs partner notification — the RDMA pre-setup of §3.2. It blocks for
// the full (milliseconds-per-QP) control-path cost and is meant to run
// concurrently with memory pre-copy.
func (pl *Plugin) RunPreSetup() error {
	if err := pl.staged.Replay(); err != nil {
		return err
	}
	return pl.NotifyPartners()
}

// PostRestore applies the final RDMA diff, swaps the session onto the
// destination resources, and re-arms the data path (Fig. 2b ⑥'+⑦).
// Partner switch-over (SwitchPartners) must run between the swap and
// Resume; runc's migration driver sequences that.
func (pl *Plugin) PostRestore(r *criu.Restore, p *task.Process, blob []byte) error {
	s, err := sessionOf(p)
	if err != nil {
		return err
	}
	final, err := DecodeBlob(blob)
	if err != nil {
		return err
	}
	if pl.staged == nil {
		// No pre-setup (the baseline of §5.2): build everything now,
		// inside the blackout.
		st, err := pl.Dst.RestoreContextFor(r, nil, final, pl.ID)
		if err != nil {
			return err
		}
		pl.staged = st
		if err := st.Replay(); err != nil {
			return err
		}
		if err := pl.NotifyPartners(); err != nil {
			return err
		}
	} else if err := pl.staged.applyFinal(final); err != nil {
		return err
	}
	return pl.adopt(s)
}

// adopt swaps the session's underlying objects for the staged ones and
// registers it with the destination daemon. The session is left
// suspended; ResumeMigrated completes step ⑦ after partners switched.
func (pl *Plugin) adopt(s *Session) error {
	st := pl.staged
	if err := st.bind(s); err != nil {
		return err
	}
	// Move the registration: the source daemon forgets the session (and
	// remembers where its virtual QPNs went), the destination daemon
	// adopts it.
	pl.Src.unregister(s)
	for _, qp := range s.sortedQPs() {
		pl.Src.movedVQPN[qp.vqpn] = pl.Dst.Node()
	}
	pl.Dst.register(s)
	for _, qp := range s.sortedQPs() {
		pl.Dst.mapQPN(qp.v.QPN(), qp.vqpn, s)
	}
	pl.Dst.unstage(pl.ID, st)
	pl.adopted = true
	return nil
}

// AbortSource rolls back SuspendSource after a failed migration: every
// QP of the migrated session that is still suspended resumes on the
// source device, replaying intercepted posts and pending receives (the
// §3.4 resume path, reused for rollback). Safe to call when nothing was
// suspended.
func (pl *Plugin) AbortSource() error {
	if pl.sess == nil {
		return nil
	}
	var qps []*QP
	for _, qp := range pl.sess.sortedQPs() {
		if qp.suspended {
			qps = append(qps, qp)
		}
	}
	if len(qps) == 0 {
		return nil
	}
	return pl.sess.Resume(qps)
}

// AbortStaging discards the destination-side staged restore: every
// staged resource is destroyed and the restore taken off the
// migration's record.
// If the session was adopted, AbortAdoption must have run first (it
// unbinds the session from the staged objects).
func (pl *Plugin) AbortStaging() {
	if pl.staged == nil {
		return
	}
	pl.staged.abort()
	pl.Dst.unstage(pl.ID, pl.staged)
	pl.staged = nil
}

// AbortAdoption reverses adopt after a failed migration: the session is
// unregistered from the destination daemon, unbound from the staged
// objects (wrappers and translation tables point back at the source
// resources), and re-registered with the source daemon. A no-op unless
// adopt completed.
func (pl *Plugin) AbortAdoption() {
	if !pl.adopted {
		return
	}
	pl.adopted = false
	s, st := pl.sess, pl.staged
	pl.Dst.unregister(s)
	for _, qp := range s.sortedQPs() {
		// qp.v is still the staged destination QP here.
		pl.Dst.unmapQPN(qp.v.QPN())
		delete(pl.Src.movedVQPN, qp.vqpn)
	}
	st.unbind(s)
	pl.Src.register(s)
	for _, qp := range s.sortedQPs() {
		// After unbind qp.v is the original source QP again; unregister
		// left the source QPN table intact, mapQPN restores byPhys.
		pl.Src.mapQPN(qp.v.QPN(), qp.vqpn, s)
	}
}

// partners groups the migrated session's connected QPs by the node of
// their peer, the nodes in the order the QPs (in virtual-QPN order)
// first name them. Only RC QPs have a peer node, and it does not change
// when the session moves.
func (pl *Plugin) partners() (nodes []string, qps map[string][]*QP) {
	qps = make(map[string][]*QP)
	for _, qp := range pl.sess.sortedQPs() {
		node := qp.v.RemoteNode()
		if node == "" {
			continue
		}
		if _, seen := qps[node]; !seen {
			nodes = append(nodes, node)
		}
		qps[node] = append(qps[node], qp)
	}
	return nodes, qps
}

// AbortPartners tells every partner node involved in this migration to
// roll back what its record of the migration holds (hAbort).
// Best-effort: unreachable partners are reported but do not stop the
// remaining notifications.
func (pl *Plugin) AbortPartners() error {
	if pl.sess == nil {
		return nil
	}
	nodes, _ := pl.partners()
	var firstErr error
	for _, node := range nodes {
		resp, ok := pl.Src.call(node, "abort", abortReq{
			MigID: pl.ID, Proc: pl.sess.Proc.Name, SrcNode: pl.Src.Node(),
		})
		switch {
		case firstErr != nil:
		case !ok:
			firstErr = fmt.Errorf("core: partner %s unreachable for abort", node)
		case len(resp) > 0:
			firstErr = fmt.Errorf("core: partner %s abort: %s", node, resp)
		}
	}
	return firstErr
}

// NotifyPartners implements the §3.2 notification: for every partner
// node, send the migration destination's address and the list of the
// partner's physical QPNs connected to the migrated service; each
// partner pre-establishes spare QPs to the destination. It blocks until
// every partner finished pre-setup.
func (pl *Plugin) NotifyPartners() error {
	nodes, qps := pl.partners()
	for _, node := range nodes {
		req := notifyReq{MigID: pl.ID, Proc: pl.sess.Proc.Name, DestNode: pl.Dst.Node()}
		for _, qp := range qps[node] {
			req.Pairs = append(req.Pairs, notifyPair{PartnerQPN: qp.v.RemoteQPN(), VQPN: qp.vqpn})
		}
		resp, ok := pl.Src.call(node, "notify-migr", req)
		if !ok {
			return fmt.Errorf("core: partner %s unreachable for notification", node)
		}
		if len(resp) > 0 {
			return fmt.Errorf("core: partner %s pre-setup: %s", node, resp)
		}
	}
	return nil
}

// SuspendPartners tells every partner to suspend its QPs toward the
// migration source and run wait-before-stop; it blocks until all of
// them finish (§3.4) and returns the slowest partner's result. It runs
// concurrently with the source's own wait-before-stop. Each partner
// gets the physical QPNs of this migration's connections, so it
// suspends exactly those and not QPs of other processes that merely
// talk to the same source.
func (pl *Plugin) SuspendPartners() error {
	pl.partnerWBS = WBSResult{}
	nodes, qps := pl.partners()
	for _, node := range nodes {
		if node == pl.Src.Node() {
			continue
		}
		req := suspendForReq{MigID: pl.ID, SrcNode: pl.Src.Node()}
		for _, qp := range qps[node] {
			req.PartnerQPNs = append(req.PartnerQPNs, qp.v.RemoteQPN())
		}
		resp, ok := pl.Src.call(node, "suspend-for", req)
		if !ok {
			return fmt.Errorf("core: partner %s unreachable for suspension", node)
		}
		var sr suspendForResp
		if err := codec.Decode(resp, &sr); err == nil {
			if d := time.Duration(sr.ElapsedNS); d > pl.partnerWBS.Elapsed {
				pl.partnerWBS = WBSResult{Elapsed: d, TimedOut: sr.TimedOut}
			}
		}
	}
	return nil
}

// WorstPartnerWBS reports the slowest partner-side wait-before-stop of
// the last SuspendPartners call.
func (pl *Plugin) WorstPartnerWBS() WBSResult { return pl.partnerWBS }

// SuspendSource suspends all of the migrated service's QPs and runs its
// wait-before-stop, returning the result (§3.4).
func (pl *Plugin) SuspendSource() WBSResult {
	qps := pl.sess.SuspendAll()
	return pl.sess.WaitBeforeStop(qps, pl.Src.wbsTimeout)
}

// SwitchPartners activates the partners' spare QPs (step right before
// ⑦, §3.2). The destination session must already be registered.
func (pl *Plugin) SwitchPartners() error {
	return pl.callPartners("switch-to")
}

// SwitchPartnersDeferred is the plug-forward variant of SwitchPartners:
// the partners' spare QPs are activated but stay suspended (and their
// old QPs alive) until ResumePartners, so partner traffic cannot start
// before the migrated service is live.
func (pl *Plugin) SwitchPartnersDeferred() error {
	return pl.callPartners("switch-defer")
}

// ResumePartners completes a deferred switch-over once the migrated
// service has thawed: every partner resumes its re-pointed QPs and
// replays intercepted work.
func (pl *Plugin) ResumePartners() error {
	return pl.callPartners("resume-partners")
}

func (pl *Plugin) callPartners(kind string) error {
	nodes, _ := pl.partners()
	for _, node := range nodes {
		resp, ok := pl.Dst.call(node, kind, switchReq{
			MigID: pl.ID, Proc: pl.sess.Proc.Name, SrcNode: pl.Src.Node(), DestNode: pl.Dst.Node(),
		})
		if !ok {
			return fmt.Errorf("core: partner %s unreachable for %s", node, kind)
		}
		if len(resp) > 0 {
			return fmt.Errorf("core: partner %s %s: %s", node, kind, resp)
		}
	}
	return nil
}

// ResumeMigrated re-arms the migrated session's data path: intercepted
// WRs are posted and pending RECVs replayed on the new QPs (⑦).
func (pl *Plugin) ResumeMigrated() error {
	return pl.sess.Resume(pl.sess.sortedQPs())
}

// ReclaimSource destroys the original RDMA resources on the migration
// source ("the migration source reclaims all the resources", §3.1).
func (pl *Plugin) ReclaimSource() {
	st := pl.staged
	for _, old := range st.srcQPs {
		phys := old.QPN()
		old.Destroy()
		pl.Src.unmapQPN(phys)
	}
	for _, mr := range st.srcMRs {
		mr.Dereg()
	}
	for _, cq := range st.srcCQs {
		cq.Destroy()
	}
	for _, srq := range st.srcSRQs {
		srq.Destroy()
	}
	for _, pd := range st.srcPDs {
		pd.Dealloc()
	}
}
