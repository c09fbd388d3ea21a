package tenant

import (
	"encoding/binary"
	"testing"
	"time"
)

// FuzzAdmit is the tenancy isolation boundary under arbitrary headers:
// (*Service).admit runs against a live session table (sessions 0–3
// opened by the gateway, 1 closed again), with the claimed token either
// the session's own or any other. The status must follow the fixed
// order — unknown session, cross-tenant, bounds, OK — an admitted op
// must change exactly the 8 bytes at its slice+Off, and a rejected one
// nothing in the arena.
func FuzzAdmit(f *testing.F) {
	r := newRig(f, 33, Options{Sessions: 4, Lanes: 1, LaneDepth: 2})
	f.Cleanup(r.cl.Close)
	const closed = 1
	up := false
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		up = r.gw.CloseSession(closed) == nil
	})
	r.cl.Sched.RunFor(50 * time.Millisecond)
	if !up {
		f.Fatal("the service did not come up with its sessions open")
	}

	f.Add(uint32(0), uint32(0), true, uint32(0), uint64(1))            // admitted
	f.Add(uint32(2), uint32(0), true, uint32(sliceSize-8), uint64(2))  // the slice's last word
	f.Add(uint32(2), uint32(0), true, uint32(sliceSize-4), uint64(3))  // straddles the slice's end
	f.Add(uint32(3), uint32(0), true, uint32(sliceSize), uint64(4))    // the next tenant's first word
	f.Add(uint32(0), tokenFor(3), false, uint32(0), uint64(5))         // another tenant's token
	f.Add(uint32(closed), uint32(0), true, uint32(0), uint64(6))       // closed
	f.Add(uint32(9), tokenFor(9), false, uint32(sliceSize), uint64(7)) // never opened

	svc, as := r.svc, r.svc.Sess.Proc.AS
	before := make([]byte, svc.arenaSize())
	after := make([]byte, len(before))
	f.Fuzz(func(t *testing.T, sess, token uint32, own bool, off uint32, stamp uint64) {
		open := sess < uint32(r.gw.NumSessions()) && sess != closed
		if own && open {
			token = r.gw.Session(int(sess)).Token
		}
		want := byte(StatusOK)
		switch {
		case !open:
			want = StatusUnknownSession
		case token != r.gw.Session(int(sess)).Token:
			want = StatusCrossTenant
		case uint64(off)+8 > sliceSize:
			want = StatusBounds
		}
		if err := as.Read(tenantArena, before); err != nil {
			t.Fatal(err)
		}
		got := svc.admit(header{Sess: sess, Token: token, Kind: kindData, Off: off, Stamp: stamp})
		if err := as.Read(tenantArena, after); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("admit(sess %d, token %#x, off %d) = status %d, want %d", sess, token, off, got, want)
		}
		if got == StatusOK {
			at := int(svc.sliceAddr(int(sess))-tenantArena) + int(off)
			binary.LittleEndian.PutUint64(before[at:], stamp)
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("admit(sess %d, token %#x, off %d) = status %d left arena byte %d = %#x, want %#x",
					sess, token, off, got, i, after[i], before[i])
			}
		}
	})
}
