package chaos

import (
	"fmt"
	"strings"

	"migrrdma/internal/core"
	"migrrdma/internal/experiments"
	"migrrdma/internal/orchestrator"
	"migrrdma/internal/rnic"
)

// commonCheckers run on every scenario, in report order; the others are
// the tier-specific ones a catalogue entry lists in Scenario.Checkers.
var (
	commonCheckers = []Checker{
		{"migrations", checkMigrations},
		{"exercised", checkExercised},
		{"residue", checkNoResidue},
	}
	ledgerChecker = Checker{"ledger", checkLedger}
	plugChecker   = Checker{"plug", checkPlug}
	chunkChecker  = Checker{"chunks", checkChunks}
	tenantChecker = Checker{"tenant", checkTenant}
	drainChecker  = Checker{"drain", checkDrain}
)

// violations accumulates a checker's messages, one per breach.
type violations []string

func (v *violations) addf(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// qpKey identifies one QP incarnation. Migration rebuilds QPs with
// fresh physical QPNs on the destination device, so (node, qpn) keys a
// single incarnation and per-key invariants hold across the boundary
// while the application-level sequence check (perftest CheckOrder)
// covers continuity end to end.
type qpKey struct {
	node string
	qpn  uint32
}

// checkMigrations validates every migration's outcome against what the
// scenario declared: a clean success landing the moved side on the
// destination, or — under an expected Abort — a rollback that names the
// injected fault and leaves the service running on the source. Either
// way the pair's end-to-end delivery invariants must hold.
func checkMigrations(ev *Evidence) []string {
	var v violations
	sc, snap := ev.Scenario, ev.Report.Metrics
	for i, o := range ev.Report.Migrations {
		// Every message carries the migration ID.
		badf := func(format string, args ...any) { v.addf(o.ID+": "+format, args...) }
		want := o.Dst
		if i == 0 && sc.Abort.expected() {
			want = o.Src
			point, needle := sc.Abort.Phase, "phase "+sc.Abort.Phase
			if sc.Abort.Round != "" {
				point = fmt.Sprintf("%s#%d", sc.Abort.Round, sc.Abort.Chunk)
				needle = fmt.Sprintf("chunk %d of round %s refused", sc.Abort.Chunk, sc.Abort.Round)
			}
			switch {
			case o.Err == nil:
				badf("migration succeeded despite fault injected at %s", point)
			case !strings.Contains(o.Err.Error(), needle):
				badf("abort error does not name %q: %v", needle, o.Err)
			}
			if o.FinalStage != "aborted" {
				badf("final stage %q, want aborted", o.FinalStage)
			}
			if got := snap.Sum("migr", "migrations_aborted"); got != 1 {
				badf("migrations_aborted = %d, want 1", got)
			}
		} else {
			if o.Err != nil {
				badf("migration failed: %v", o.Err)
			}
			if o.FinalStage != "done" {
				badf("migration ended in stage %q", o.FinalStage)
			}
			if i == 0 && sc.Abort.Retry && o.Attempts < 2 {
				badf("first attempt was to abort and retry, but %d attempts ran", o.Attempts)
			}
			// The runc report carries the migration's own ID, or — for an
			// orchestrated one — the executor job its last attempt bound.
			want := o.ID
			if job, ok := ev.bound[o.ID]; ok {
				want = job
			}
			if o.Report == nil || o.Report.MigrationID != want {
				badf("report not tagged with its migration ID %s", want)
			}
		}
		if o.Host != want {
			badf("container on %s, want %s", o.Host, want)
		}
		if mv := ev.movers[i]; mv.pair != nil {
			checkPair(badf, mv.pair, mv.spec, mv.atSwitch, want)
		}
	}
	if len(ev.Report.Migrations) == 0 {
		v.addf("no migration ran")
	}
	return v
}

// checkPair validates one client/server pair's end-to-end invariants:
// exactly-once in-order delivery, post-migration progress, the moved
// side landing on wantNode while the other stays put, and poller drain.
func checkPair(badf func(string, ...any), p *experiments.Pair, spec Pair, atSwitch int64, wantNode string) {
	cli, srv := p.Client, p.Server

	// Exactly-once, in-order, uncorrupted delivery across the migration
	// boundary: perftest CheckOrder stamps every payload and verifies
	// WR-ID sequence on both sides; any slip lands in Stats.Errors.
	for _, e := range p.Errors() {
		badf("%s", e)
	}
	if cli.Stats.Completed != srv.Stats.Completed {
		badf("completion mismatch: client %d != server %d", cli.Stats.Completed, srv.Stats.Completed)
	}

	// Traffic resumed after switch-over (or after the rollback).
	if cli.Stats.Completed <= atSwitch {
		badf("no progress after migration (stuck at %d completions)", atSwitch)
	}
	wantCli, wantSrv := wantNode, spec.Server
	if spec.Moves == Server {
		wantCli, wantSrv = spec.Client, wantNode
	}
	if cli.Sess != nil && cli.Sess.Node() != wantCli {
		badf("client session on %q, want %s", cli.Sess.Node(), wantCli)
	}
	if srv.Sess != nil && srv.Sess.Node() != wantSrv {
		badf("server session on %q, want %s", srv.Sess.Node(), wantSrv)
	}

	// Every WaitNonEmpty poller on the client session drained: once the
	// client finished, nobody may still be parked on a dead
	// pre-migration CQ. (The server's poller legitimately parks waiting
	// for traffic that will never come; its drain is proven by the
	// completion-count equality above.)
	if cli.Sess != nil && cli.Sess.ActivePollers() != 0 {
		badf("client still has %d active CQ pollers", cli.Sess.ActivePollers())
	}
}

// checkExercised is the vacuity guard: declared faults must have armed,
// and every counter the scenario names in MustMove must have moved.
func checkExercised(ev *Evidence) []string {
	var v violations
	if len(ev.Scenario.Faults) > 0 && ev.Report.FaultsArmed == 0 {
		v.addf("scenario armed no faults")
	}
	for _, key := range ev.Scenario.MustMove {
		comp, name, _ := strings.Cut(key, "/")
		if ev.Report.Metrics.Sum(comp, name) == 0 {
			v.addf("%s stayed 0 (the path this scenario exists for was not exercised)", key)
		}
	}
	return v
}

// checkLedger scans the event ledger for transport-level invariant
// breaches: PSN/ACK monotonicity, send-completion WR-ID order, and
// rkey protection after deregistration. The ledger mixes all
// migrations' QPs; the per-(node, qpn) keying keeps them separate.
func checkLedger(ev *Evidence) []string {
	var v violations

	// Ledger scan. Runs are far below 2^24 packets, so PSN monotonicity
	// can be checked numerically without wrap handling.
	type lastSeen struct {
		seen bool
		last uint64
	}
	acked := make(map[qpKey]lastSeen)
	exp := make(map[qpKey]lastSeen)
	lastSendWRID := make(map[qpKey]lastSeen)
	// advance records v as k's latest value and reports the previous one
	// when v fails to move past it.
	advance := func(m map[qpKey]lastSeen, k qpKey, v uint64) (prev uint64, regressed bool) {
		st := m[k]
		m[k] = lastSeen{true, v}
		return st.last, st.seen && v <= st.last
	}
	dereg := make(map[string]map[uint32]bool) // node → rkeys deregistered so far
	ackViol, expViol, wridViol := 0, 0, 0
	for _, e := range ev.ledger {
		k := qpKey{e.Node, e.QPN}
		switch e.Kind {
		case "ack":
			if prev, bad := advance(acked, k, uint64(e.PSN)); bad {
				ackViol++
				if ackViol <= 3 {
					v.addf("acked PSN regressed on %s qpn=%#x: %d after %d", e.Node, e.QPN, e.PSN, prev)
				}
			}
		case "exp":
			if prev, bad := advance(exp, k, uint64(e.PSN)); bad {
				expViol++
				if expViol <= 3 {
					v.addf("responder expPSN regressed on %s qpn=%#x: %d after %d", e.Node, e.QPN, e.PSN, prev)
				}
			}
		case "cqe":
			// Requester-side completions carry the posting WR-ID, which
			// perftest assigns in strictly increasing order per QP; a
			// duplicate or reordered completion shows up here even if
			// the application never polls it. Receive WR-IDs recycle, so
			// only send-side opcodes are checked.
			if rnic.WCStatus(e.Status) != rnic.WCSuccess || rnic.Opcode(e.Op) == rnic.OpRecv {
				continue
			}
			if prev, bad := advance(lastSendWRID, k, e.Seq); bad {
				wridViol++
				if wridViol <= 3 {
					v.addf("send completion out of order on %s qpn=%#x: wrid %d after %d", e.Node, e.QPN, e.Seq, prev)
				}
			}
		case "dereg":
			m := dereg[e.Node]
			if m == nil {
				m = make(map[uint32]bool)
				dereg[e.Node] = m
			}
			m[e.RKey] = true
		case "rkey":
			// rkey protection: once deregistered, a key must never be
			// admitted again — even by a delayed duplicate replaying an
			// old one-sided access against the reclaimed source NIC.
			if e.OK && dereg[e.Node][e.RKey] {
				v.addf("post-Dereg rkey %#x admitted on %s", e.RKey, e.Node)
			}
		}
	}
	if ackViol > 3 {
		v.addf("... %d more acked-PSN regressions", ackViol-3)
	}
	if expViol > 3 {
		v.addf("... %d more expPSN regressions", expViol-3)
	}
	if wridViol > 3 {
		v.addf("... %d more out-of-order send completions", wridViol-3)
	}
	return v
}

// checkPlug validates a successful plug-forward cutover. The plug-buffer
// event stream must show the flush releasing exactly the buffered
// frames, in arrival order, exactly once, and never the abort-path
// discard. A fault-free run must also make the headline §1 claim true:
// zero-loss cutover — the transport never retransmits, because the
// blackout-window frames wait in the plug instead of bouncing off
// not-yet-resumed QPs.
func checkPlug(ev *Evidence) []string {
	var v violations
	var buffered, flushed []uint64
	discards := 0
	for _, e := range ev.ledger {
		if e.Kind != "plug" {
			continue
		}
		switch e.Note {
		case "buffer":
			buffered = append(buffered, e.Seq)
		case "flush":
			flushed = append(flushed, e.Seq)
		case "discard":
			discards++
		}
	}
	if discards != 0 {
		v.addf("%d plugged frames discarded in a successful run", discards)
	}
	seen := make(map[uint64]bool, len(flushed))
	for _, s := range flushed {
		if seen[s] {
			v.addf("frame seq %d flushed twice", s)
		}
		seen[s] = true
	}
	if len(flushed) != len(buffered) {
		v.addf("flushed %d frames, buffered %d", len(flushed), len(buffered))
	} else {
		for i := range flushed {
			if flushed[i] != buffered[i] {
				v.addf("flush order diverges from arrival order at %d: seq %d, arrived %d",
					i, flushed[i], buffered[i])
				break
			}
		}
	}
	if len(ev.Scenario.Faults) == 0 {
		if retx := ev.Report.Metrics.Sum("rnic", "retx_packets"); retx != 0 {
			v.addf("fault-free plug cutover retransmitted %d packets, want 0", retx)
		}
		// Vacuity guard beside MustMove's plug_buffered_packets: the
		// claim above is meaningless if nothing was ever flushed.
		if m := ev.Report.Migrations; len(m) == 0 || m[0].Report == nil || m[0].Report.PlugFlushed == 0 {
			v.addf("migration report shows no flushed frames")
		}
	}
	return v
}

// checkChunks validates the page channel's chunk protocol against the
// pchan ledger events: every chunk sequence is sent at most once,
// received at most once and only after being sent, applied at most once
// and only after being received; an expected abort left its event; and
// a successful run demonstrably streamed chunks and elided pages, so
// the tier can never pass vacuously. (Staged chunks left behind are the
// residue census's business.)
func checkChunks(ev *Evidence) []string {
	var v violations

	sent := make(map[uint64]int)
	recv := make(map[uint64]int)
	applied := make(map[uint64]int)
	abortEvents := 0
	for _, e := range ev.ledger {
		if e.Kind != "pchan" {
			continue
		}
		switch e.Note {
		case "send":
			sent[e.Seq]++
			if sent[e.Seq] > 1 {
				v.addf("chunk %d enqueued %d times", e.Seq, sent[e.Seq])
			}
		case "recv":
			recv[e.Seq]++
			if recv[e.Seq] > 1 {
				v.addf("chunk %d received %d times", e.Seq, recv[e.Seq])
			}
			if sent[e.Seq] == 0 {
				v.addf("chunk %d received before being sent", e.Seq)
			}
		case "apply":
			applied[e.Seq]++
			if applied[e.Seq] > 1 {
				v.addf("chunk %d applied %d times", e.Seq, applied[e.Seq])
			}
			if recv[e.Seq] == 0 {
				v.addf("chunk %d applied before being received", e.Seq)
			}
		case "abort":
			abortEvents++
		}
	}
	if ev.Scenario.Abort.expected() {
		if abortEvents == 0 {
			v.addf("no channel abort event despite an injected mid-chunk fault")
		}
		return v
	}
	// Successful run: exactly-once end to end, and the tier exercised
	// the machinery it exists to pin (vacuity guards).
	if len(sent) == 0 {
		v.addf("pipelined run streamed no chunks")
	}
	for seq := range sent {
		if recv[seq] != 1 {
			v.addf("chunk %d sent but received %d times", seq, recv[seq])
		}
	}
	if ev.Report.Metrics.Sum("pagechan", "pages_elided") == 0 {
		v.addf("no pages elided despite the constant-content/zero memhog")
	}
	if m := ev.Report.Migrations; len(m) > 0 && m[0].Report != nil && len(m[0].Report.Rounds) < 2 {
		v.addf("only %d streamed rounds, want at least predump + final", len(m[0].Report.Rounds))
	}
	return v
}

// checkTenant validates the per-tenant guarantees: every data operation
// acknowledged exactly once and in order across the migration boundary,
// every cross-tenant namespace claim NAKed, queued (credit-stalled)
// work drained rather than dropped, and the two sides' ledgers in exact
// agreement.
func checkTenant(ev *Evidence) []string {
	gw, svc := ev.tenant.gw, ev.tenant.svc
	// The gateway ledger: exactly-once, in-order, isolation, no drops.
	v := violations(gw.CheckInvariants())
	if gw.Stats.AckedOK == 0 {
		v.addf("no tenant operations completed")
	}
	// Cross-side agreement: the service admitted exactly what the
	// gateway saw acknowledged, and rejected exactly the probes.
	if svc.Stats.Acked != gw.Stats.AckedOK {
		v.addf("service acked %d ops, gateway saw %d", svc.Stats.Acked, gw.Stats.AckedOK)
	}
	if svc.Stats.CrossTenant != gw.Stats.Probes {
		v.addf("%d cross-tenant probes sent, service rejected %d", gw.Stats.Probes, svc.Stats.CrossTenant)
	}
	if svc.Stats.Bounds != 0 {
		v.addf("%d in-slice writes rejected for bounds", svc.Stats.Bounds)
	}
	if gw.Stats.CreditStalls == 0 {
		// The burst is 3× the bucket: admission must have stalled at
		// least one session or QoS was never exercised.
		v.addf("burst of %d ops per session never stalled on %d credits", tenantBurst, tenantOpts().Credits)
	}
	for _, e := range svc.Stats.Errors {
		v.addf("service error: %s", e)
	}
	return v
}

// checkDrain validates the drain-level invariants: the drain expanded
// into one migration per registered container, and every migration
// landed off the drained rack within the blackout SLO.
func checkDrain(ev *Evidence) []string {
	var v violations
	if got, want := len(ev.Report.Migrations), len(ev.Scenario.Workload.Pairs); got != want {
		v.addf("expansion: %d migrations for %d registered containers", got, want)
	}
	for _, o := range ev.Report.Migrations {
		if o.FinalStage != "done" {
			continue // checkMigrations reports it, an expansion conflict included
		}
		if ev.racks[o.Dst] == 0 {
			v.addf("%s: placed on %s inside the drained rack", o.ID, o.Dst)
		}
		if !o.SLOMet {
			v.addf("%s: blackout %v breaches the %v SLO", o.ID, o.Blackout, drainSLO)
		}
	}
	return v
}

// hostResidue is one host's row of the residue census: what its daemon,
// its control channel, the fabric and the orchestrator still hold for
// migrations once a run has quiesced.
type hostResidue struct {
	host   string
	daemon core.Census
	// oobCalls and oobHandlers are the host's control calls awaiting a
	// reply and handler runs not returned (oob.Hub.InFlight).
	oobCalls, oobHandlers int
	plugDepth             int // frames in the fabric plug; -1: none installed
	// orch is the orchestrator's and the host executor's in-flight
	// state (orchestrated runs; zero under Direct).
	orch orchestrator.Census
}

// takeCensus reads the residue row of every host; orch is the run's
// orchestrator, nil under Direct.
func takeCensus(rig *experiments.Rig, orch *orchestrator.Orchestrator) []hostResidue {
	var out []hostResidue
	for _, n := range rig.CL.Names() {
		h := hostResidue{host: n, daemon: rig.Daemons[n].Census(), plugDepth: rig.CL.Net.PlugDepth(n)}
		h.oobCalls, h.oobHandlers = rig.CL.Host(n).Hub.InFlight()
		if orch != nil {
			h.orch = orch.Census(n)
		}
		out = append(out, h)
	}
	return out
}

// checkNoResidue is the leave-no-residue invariant, on every scenario,
// committed or aborted, over every host and every migration: at quiesce
// exactly one side owns each connection's state (MigrOS's rule), so no
// daemon may still hold a migration record, a staged restore, a spare
// or suspended QP, a plug, a forwarding rule or a stashed n_sent; no
// control call may await a reply nor handler run; no staged chunk may
// remain; on an orchestrated run no in-flight orchestrator entry or held
// executor slot may remain; and once the rig is closed, no live proc
// and no goroutine above the count from before it was built.
func checkNoResidue(ev *Evidence) []string {
	var v violations
	for _, h := range ev.census {
		d, c := h.daemon, h.orch
		for _, n := range []struct {
			held int
			what string
		}{
			{d.Records, "migration records"},
			{d.Staged, "staged restores"},
			{d.Spares, "pre-setup spare QPs"},
			{d.Suspended, "suspended QPs"},
			{d.Plugs, "plug-forward destination plugs"},
			{d.Forwards, "forwarding rules"},
			{d.NSent, "stashed n_sent announcements"},
			{h.oobCalls, "control calls awaiting a reply"},
			{h.oobHandlers, "control handler runs in flight"},
			{c.Active, "active migrations of its containers"},
			{c.Incoming, "attempts placed onto it"},
			{c.Draining, "drains selecting it"},
			{c.Running, "executor admission slots taken"},
			{c.Queued, "executor jobs queued"},
			{c.Busy, "executor containers marked busy"},
		} {
			if n.held != 0 {
				v.addf("%s still holds %d %s", h.host, n.held, n.what)
			}
		}
		if h.plugDepth >= 0 {
			v.addf("%s still has a fabric plug installed (depth %d)", h.host, h.plugDepth)
		}
	}
	if staged := ev.Report.Metrics.Sum("pagechan", "staged_chunks"); staged != 0 {
		v.addf("%d chunks still staged after the run", staged)
	}
	if ev.liveProcs != 0 {
		v.addf("%d procs still live after Close", ev.liveProcs)
	}
	if ev.goroutines != 0 {
		v.addf("%d goroutines left behind after Close", ev.goroutines)
	}
	return v
}
