package tenant

import (
	"testing"
	"time"
)

// BenchmarkOpenSessions times the per-session path of OpenMore: one op
// opens a batch of 512 sessions on a service already holding 512 — the
// OOB round trip, the gateway's session records and ack windows, the
// service's table. Rig setup and the initial population are off the
// clock; allocs/op over 512 is the allocation cost of one session.
func BenchmarkOpenSessions(b *testing.B) {
	const batch = 512
	b.ReportAllocs()
	b.StopTimer()
	for range b.N {
		r := newRig(b, 1, Options{Sessions: batch, Lanes: 2})
		r.cl.Sched.Go("driver", func() {
			r.gw.WaitReady()
			b.StartTimer()
			_, err := r.gw.OpenMore(batch)
			b.StopTimer()
			if err != nil {
				b.Error(err)
			}
			if n := r.gw.NumSessions(); n != 2*batch {
				b.Errorf("%d sessions open, want %d", n, 2*batch)
			}
		})
		r.cl.Sched.RunFor(100 * time.Millisecond)
		r.cl.Close()
	}
}
