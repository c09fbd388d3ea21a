package task

import (
	"sync"
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
// (e+i) mod 256 on; constant page i is all byte(i), hogConst()[i mod 256].
// Both are read-only frames the hog's pages borrow (mem.Frame).
var hogRamp [mem.PageSize + 256]byte

func init() {
	for k := range hogRamp {
		hogRamp[k] = byte(k)
	}
}

// hogConst is one constant page per byte value, built the first time a
// hog needs one and shared by every hog and simulation after.
var hogConst = sync.OnceValue(func() *[256][mem.PageSize]byte {
	t := new([256][mem.PageSize]byte)
	for v := range t {
		for j := range t[v] {
			t[v][j] = byte(v)
		}
	}
	return t
})

// page returns what epoch e writes to page i. A full write is the whole
// page, a frame the page borrows, so the last argument is unused;
// otherwise a zero or constant page, which already holds its bytes, gets
// one store of its first byte: the same bytes and dirty set without
// touching the others.
func (h PageHog) page(e, i int, full bool, _ []byte) []byte {
	switch {
	case i < h.Hot:
		return hogRamp[(e+i)&255:][:mem.PageSize]
	case i < h.Hot+h.Zero && full:
		return mem.ZeroFrame.Bytes()
	case i < h.Hot+h.Zero:
		return mem.ZeroFrame.Bytes()[:1]
	case !full:
		return hogRamp[i&255:][:1]
	}
	return hogConst()[i&255][:]
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
		var last *mem.AddressSpace // written by the previous epoch
		for e := 1; !p.Exited() && !stopped; e++ {
			if as := p.AS; !p.Frozen() {
				for i := 0; i < h.Pages; i++ {
					a, b := h.Base+mem.Addr(i*mem.PageSize), h.page(e, i, as != last, nil)
					var err error
					if len(b) == mem.PageSize {
						err = as.Borrow(a, mem.FrameOf(b))
					} else {
						err = as.Write(a, b)
					}
					if err != nil {
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
