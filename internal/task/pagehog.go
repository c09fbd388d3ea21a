package task

import (
	"time"

	"migrrdma/internal/mem"
)

// PageHog is the deterministic writer that gives a migrated process a
// realistic page mix: of Pages pages at Base, the first Hot change
// every epoch, the next Zero are zero scratch pages, and the rest are
// constant-content rewrites the dirty-bit tracker flags but a
// content-hash table elides — the pre-copy page mix MigrOS reports.
// Every Interval it rewrites them all.
type PageHog struct {
	Base             mem.Addr
	Pages, Hot, Zero int
	Interval         time.Duration
}

// Byte j of hot page i at epoch e is byte(e+i+j), which is hogRamp from
// (e+i) mod 256 on; constant page i is all byte(i), hogRamp[i mod 256].
var (
	hogRamp [mem.PageSize + 256]byte
	hogZero [mem.PageSize]byte
)

func init() {
	for k := range hogRamp {
		hogRamp[k] = byte(k)
	}
}

// page returns what epoch e writes to page i. A full write is the whole
// page (a constant page is built in buf); otherwise a zero or constant
// page, which already holds its bytes, gets one store of its first
// byte: the same bytes and dirty set without recopying them.
func (h PageHog) page(e, i int, full bool, buf []byte) []byte {
	switch {
	case i < h.Hot:
		return hogRamp[(e+i)&255:][:mem.PageSize]
	case i < h.Hot+h.Zero && full:
		return hogZero[:]
	case i < h.Hot+h.Zero:
		return hogZero[:1]
	case !full:
		return hogRamp[i&255:][:1]
	}
	buf[0] = byte(i)
	for n := 1; n < mem.PageSize; n *= 2 {
		copy(buf[n:mem.PageSize], buf[:n])
	}
	return buf[:mem.PageSize]
}

// Start maps the hog's region on p and attaches the writer until the
// process exits or the returned stop function is called, pausing while
// frozen (the writer models application threads, which the cgroup
// freezer stops). The first epoch, and the first after a restore
// installs a new address space, write every page in full.
func (h PageHog) Start(p *Process) (stop func(), err error) {
	if _, err := p.AS.Map(h.Base, uint64(h.Pages)*mem.PageSize, "appstate"); err != nil {
		return nil, err
	}
	stopped := false
	p.sched.Go("page-hog", func() {
		var buf [mem.PageSize]byte
		var last *mem.AddressSpace // written by the previous epoch
		for e := 1; !p.Exited() && !stopped; e++ {
			if as := p.AS; !p.Frozen() {
				for i := 0; i < h.Pages; i++ {
					if as.Write(h.Base+mem.Addr(i*mem.PageSize), h.page(e, i, as != last, buf[:])) != nil {
						return // unmapped mid-teardown
					}
				}
				last = as
			}
			p.sched.Sleep(h.Interval)
		}
	})
	return func() { stopped = true }, nil
}
