package task

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/sim"
)

// fillPage is the hog's page written the slow way, byte by byte: hot
// page i at epoch e holds byte(e+i+j) at offset j, zero pages zeros,
// constant page i byte(i) throughout.
func fillPage(h PageHog, epoch, i int, buf []byte) {
	switch {
	case i < h.Hot:
		for j := range buf {
			buf[j] = byte(epoch + i + j)
		}
	case i < h.Hot+h.Zero:
		for j := range buf {
			buf[j] = 0
		}
	default:
		for j := range buf {
			buf[j] = byte(i)
		}
	}
}

// TestPageHogTablesMatchTheFillLoop holds the hog's shared tables to
// the loop they replaced — fill a buffer byte by byte, every page, every
// epoch — for every (epoch mod 256, page) and past the wrap, at the
// experiments' shape and at the chaos harness's.
func TestPageHogTablesMatchTheFillLoop(t *testing.T) {
	buf := make([]byte, mem.PageSize)
	scratch := make([]byte, mem.PageSize)
	for _, h := range []PageHog{{Pages: 192, Hot: 24, Zero: 24}, {Pages: 32, Hot: 4, Zero: 4}, {Pages: 300, Hot: 280, Zero: 4}} {
		for epoch := 1; epoch <= 600; epoch++ {
			for i := 0; i < h.Pages; i++ {
				fillPage(h, epoch, i, buf)
				if got := h.page(epoch, i, true, scratch); !bytes.Equal(got, buf) {
					t.Fatalf("hog %+v, epoch %d, page %d: table differs from the fill loop", h, epoch, i)
				}
			}
		}
	}
}

// TestPageHogMatchesTheFullWriter runs the store-eliding hog against a
// reference that writes every page in full every epoch, on twin address
// spaces, for 600 epochs (past the ramp's 256-epoch wrap). Dirty
// tracking is cleared at seeded epochs, the process is frozen for a few
// epochs (neither writer runs), and after epoch 300 both get a fresh
// address space that maps the region but holds none of its pages. After
// every epoch every page's bytes, the populated pages and the dirty set
// must be equal.
func TestPageHogMatchesTheFullWriter(t *testing.T) {
	const epochs, freshAt, frozenFrom, frozenTo = 600, 300, 400, 405
	h := PageHog{Base: 0x5400_0000_0000, Pages: 40, Hot: 8, Zero: 8, Interval: 100 * time.Microsecond}
	size := uint64(h.Pages) * mem.PageSize
	s := sim.New(1)
	p := New(s, "app")
	stop, err := h.Start(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := mem.NewAddressSpace()
	if _, err := ref.Map(h.Base, size, "appstate"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, mem.PageSize)
	got, want := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	s.Go("reference", func() {
		defer stop()
		// Half an interval behind the hog: each check sees an epoch the
		// hog has just written.
		s.Sleep(h.Interval / 2)
		for e := 1; e <= epochs; e++ {
			if !p.Frozen() {
				for i := 0; i < h.Pages; i++ {
					fillPage(h, e, i, buf)
					if err := ref.Write(h.Base+mem.Addr(i*mem.PageSize), buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for i := 0; i < h.Pages; i++ {
				a := h.Base + mem.Addr(i*mem.PageSize)
				if p.AS.Read(a, got) != nil || ref.Read(a, want) != nil || !bytes.Equal(got, want) {
					t.Errorf("epoch %d, page %d: bytes differ from the full writer", e, i)
					return
				}
			}
			if !slices.Equal(p.AS.PopulatedPages(), ref.PopulatedPages()) {
				t.Errorf("epoch %d: populated pages differ from the full writer", e)
				return
			}
			if g, w := p.AS.DirtyPages(), ref.DirtyPages(); !slices.Equal(g, w) {
				t.Errorf("epoch %d: %d dirty pages, the full writer has %d", e, len(g), len(w))
				return
			}
			switch e {
			case frozenFrom - 1:
				p.Freeze()
			case frozenTo:
				p.Thaw()
			}
			if rng.IntN(5) == 0 {
				p.AS.ClearDirty()
				ref.ClearDirty()
			}
			if e == freshAt {
				// A restore installs a new address space: the region is
				// mapped, none of its pages is there yet.
				p.AS, ref = mem.NewAddressSpace(), mem.NewAddressSpace()
				if _, err := p.AS.Map(h.Base, size, "appstate"); err != nil {
					t.Error(err)
					return
				}
				if _, err := ref.Map(h.Base, size, "appstate"); err != nil {
					t.Error(err)
					return
				}
			}
			s.Sleep(h.Interval)
		}
	})
	s.Run()
}
