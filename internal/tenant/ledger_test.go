package tenant

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestAckLedgerReportsEachViolation feeds the gateway's acknowledgement
// ledger one ack of every kind it must reject: out of order, duplicate,
// unsolicited (a sequence number never sent) and a stamp that does not
// match its sequence number, plus one for a session nobody opened. The
// service is stopped before the requests reach it, so the only acks the
// ledger sees are these, and the one request never acknowledged must
// show in CheckInvariants.
func TestAckLedgerReportsEachViolation(t *testing.T) {
	opts := Options{Sessions: 2, Lanes: 1, LaneDepth: 8}
	r := newRig(t, 36, opts)
	checked := false
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		r.svc.Stop()
		r.gw.Submit(0, 4)
		r.cl.Sched.Sleep(200 * time.Microsecond)
		s := r.gw.Session(0)
		if s.sent != 4 {
			t.Fatalf("session sent %d requests, want 4", s.sent)
		}
		ack := func(seq, stamp uint64) {
			r.gw.account(s.lane, header{Sess: s.ID, Token: s.Token, Seq: seq,
				Kind: kindResp, Status: StatusOK, Stamp: stamp})
		}
		ack(0, 0)  // in order: no violation
		ack(2, 2)  // skips 1
		ack(2, 2)  // again
		ack(9, 9)  // never sent
		ack(1, 77) // late, and its stamp is wrong
		r.gw.account(0, header{Sess: 7, Kind: kindResp, Seq: 0})
		want := []string{
			"session 0: ack seq 2, want 1 (order)",
			"session 0: duplicate or unsolicited ack seq 2",
			"session 0: duplicate or unsolicited ack seq 9",
			"session 0: ack seq 1, want 3 (order)",
			"session 0: ack stamp 77, want 1 (corruption)",
			"ack for unknown session 7",
		}
		if !slices.Equal(r.gw.Violations, want) {
			t.Errorf("violations:\n  got  %q\n  want %q", r.gw.Violations, want)
		}
		if s.AckedOK != 3 {
			t.Errorf("%d acks counted, want 3", s.AckedOK)
		}
		audit := r.gw.CheckInvariants()[len(want):]
		wantAudit := []string{
			"session 0: 1 operations never acknowledged",
			"session 0: 4 data ops submitted, 3 acknowledged (exactly-once breach)",
		}
		if !slices.Equal(audit, wantAudit) {
			t.Errorf("audit:\n  got  %q\n  want %q", audit, wantAudit)
		}
		// The last request in flight still leaves the ledger when its ack
		// comes, however late.
		ack(3, 3)
		for _, v := range r.gw.CheckInvariants() {
			if strings.HasSuffix(v, "never acknowledged") {
				t.Errorf("acknowledged request still counted in flight: %q", v)
			}
		}
		checked = true
	})
	r.cl.Sched.RunFor(100 * time.Millisecond)
	if !checked {
		t.Fatal("the driver never got to check the ledger")
	}
}
