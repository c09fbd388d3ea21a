package core

import (
	"testing"
	"time"

	"migrrdma/internal/rnic"
)

// BenchmarkCQWaitWake measures the guest library's completion wait: a
// sender that parks in CQ.WaitNonEmpty after each SEND is woken by that
// SEND's completion, and a receiver parked on its own CQ by each
// receive's, which it re-posts. One op is one message, so two wakes.
func BenchmarkCQWaitWake(b *testing.B) {
	r := newWBSRig(b)
	sched := r.cl.Sched
	defer sched.Close()
	src := []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: r.mrA.LKey()}}
	dst := []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: r.mrB.LKey()}}
	sched.Go("receiver", func() {
		for i := 0; i < 64; i++ {
			if err := r.qpB.PostRecv(rnic.RecvWR{WRID: uint64(i), SGEs: dst}); err != nil {
				b.Error(err)
				return
			}
		}
		for got := 0; got < b.N; {
			r.cqB.WaitNonEmpty()
			for _, e := range r.cqB.Poll(16) {
				got++
				if err := r.qpB.PostRecv(rnic.RecvWR{WRID: e.WRID, SGEs: dst}); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	sched.Go("sender", func() {
		for i := 0; i < b.N; i++ {
			if err := r.qpA.PostSend(rnic.SendWR{WRID: uint64(i), Opcode: rnic.OpSend, Signaled: true, SGEs: src}); err != nil {
				b.Error(err)
				return
			}
			r.cqA.WaitNonEmpty()
			r.cqA.Poll(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sched.RunFor(time.Hour)
}
