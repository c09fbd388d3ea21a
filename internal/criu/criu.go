// Package criu reimplements the checkpoint/restore engine the paper
// builds on (CRIU): memory pre-dump, iterative dirty-page pre-copy,
// image transfer over the network, and a restore path split into
// *partial restore* and *full restore* exactly as §4 splits it.
//
// Two CRIU behaviours that shape MigrRDMA's design are reproduced
// faithfully:
//
//   - During partial restore CRIU maps the application's memory at a
//     TEMPORARY address range and only remaps it to the original virtual
//     addresses at the final restore iteration (§2.2 challenge 1). MR
//     registration needs original addresses, so the MigrRDMA plugin must
//     claim MR-backing VMAs early via MapAtOriginal.
//   - Dump cost grows superlinearly with the number of memory mappings
//     ("inefficient CRIU implementation for large and complicated memory
//     structures", §5.2), which is why DumpOthers grows with #QPs even
//     with RDMA pre-setup.
package criu

import (
	"fmt"
	"math"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/task"
)

// Config holds the fixed costs of the checkpoint/restore engine, the
// part of its cost model a testbed may shrink (cluster.FastCheckpointTestbed
// does). Zero fields take DefaultConfig's values.
type Config struct {
	DumpBase  time.Duration // fixed dump overhead
	FreezeLat time.Duration // cgroup freezer stop
	ThawLat   time.Duration // process resume
}

// DefaultConfig mirrors observed CRIU behaviour on the paper's testbed.
func DefaultConfig() Config {
	return Config{
		DumpBase:  70 * time.Millisecond,
		FreezeLat: 5 * time.Millisecond,
		ThawLat:   50 * time.Millisecond,
	}
}

// The per-mapping and per-page costs, the same on every testbed.
const (
	DumpPerVMA  = 18 * time.Microsecond      // per-mapping walk cost
	vmaExponent = 1.30                       // superlinearity of the mapping walk
	DumpPerPage = 150 * time.Nanosecond      // per dumped page
	RestPerPage = 250 * time.Nanosecond      // per restored page
	RemapLat    = 12 * time.Microsecond      // final mremap of the temporary area, per VMA
	tempBase    = mem.Addr(0x7000_0000_0000) // where partial restore places memory temporarily
)

// VMARec describes one mapping in an image.
type VMARec struct {
	Start  mem.Addr
	Len    uint64
	Name   string
	Device bool
}

// PageRec is one page of image content. Its bytes are a read-only
// frame: the restore installs it as the destination's page, and a dump
// points it at the frame the source page borrows.
type PageRec struct {
	Addr mem.Addr
	Data mem.Frame
}

// Image is a checkpoint image: the memory table, page contents, and the
// RDMA plugin's blob.
type Image struct {
	Proc       string
	VMAs       []VMARec
	Pages      []PageRec
	PluginBlob []byte
}

// HeaderBytes approximates the image's on-wire size without its page
// content — the memory table and the plugin blob, what still has to
// ship once the pages have gone through the page channel.
func (img *Image) HeaderBytes() int {
	return 256 + len(img.PluginBlob) + 64*len(img.VMAs)
}

// Tool is the checkpoint/restore engine instance on one host.
type Tool struct {
	cfg Config
	// Host services, provided by the cluster.
	host HostServices
}

// HostServices is what the tool needs from its host: a scheduler and a
// timed bulk transfer path to other hosts.
type HostServices interface {
	Sleep(d time.Duration)
	Now() time.Duration
	// TransferTo moves size bytes to the peer host at link pace,
	// blocking until fully received by the peer.
	TransferTo(peer string, size int)
	Node() string
}

// New creates a tool bound to host services. Zero config fields take
// defaults.
func New(host HostServices, cfg Config) *Tool {
	d := DefaultConfig()
	if cfg.DumpBase == 0 {
		cfg.DumpBase = d.DumpBase
	}
	if cfg.FreezeLat == 0 {
		cfg.FreezeLat = d.FreezeLat
	}
	if cfg.ThawLat == 0 {
		cfg.ThawLat = d.ThawLat
	}
	return &Tool{cfg: cfg, host: host}
}

// Config returns the tool's cost model.
func (t *Tool) Config() Config { return t.cfg }

// Freeze stops the process (cgroup freezer).
func (t *Tool) Freeze(p *task.Process) {
	p.Freeze()
	t.host.Sleep(t.cfg.FreezeLat)
}

// Thaw resumes the process.
func (t *Tool) Thaw(p *task.Process) {
	t.host.Sleep(t.cfg.ThawLat)
	p.Thaw()
}

// Dump checkpoints the process memory in one piece: BeginDump, then
// every selected page read into the image.
func (t *Tool) Dump(p *task.Process, full bool) *Image {
	img, sel := t.BeginDump(p, full)
	img.Pages = t.DumpPages(p, sel)
	return img
}

// BeginDump opens a dump. It captures the memory table, selects the
// pages to ship — every populated page when full (the first pre-copy
// iteration), otherwise the pages dirtied since the previous dump;
// device mappings (on-chip memory) are listed but their content is the
// RDMA plugin's job — resets dirty tracking, and pays the fixed dump
// overhead plus the superlinear mapping walk up front. Page contents
// are read (and their per-page cost paid) by subsequent DumpPages
// calls, so the page channel can overlap dumping with wire time and
// apply.
//
// A write landing between BeginDump and the batch that reads its page
// ships the newer bytes AND re-marks the page dirty, so the next round
// re-dumps it; the channel's content-hash table then elides the resend
// if the bytes did not change again (the dirty-bit false positive).
func (t *Tool) BeginDump(p *task.Process, full bool) (*Image, []mem.Addr) {
	img := &Image{Proc: p.Name}
	vmas := p.AS.VMAs()
	img.VMAs = make([]VMARec, 0, len(vmas))
	for _, v := range vmas {
		img.VMAs = append(img.VMAs, VMARec{Start: v.Start, Len: v.Len, Name: v.Name, Device: v.Device})
	}
	var pages []mem.Addr
	if full {
		pages = p.AS.PopulatedPages()
	} else {
		pages = p.AS.DirtyPages()
	}
	sel := pages[:0] // both lists are fresh copies: filter in place
	for _, a := range pages {
		if v := p.AS.FindVMA(a); v != nil && v.Device {
			continue
		}
		sel = append(sel, a)
	}
	p.AS.ClearDirty()
	walk := time.Duration(float64(DumpPerVMA) * math.Pow(float64(len(vmas)), vmaExponent))
	t.host.Sleep(t.cfg.DumpBase + walk)
	return img, sel
}

// DumpPages reads one batch of page contents at the dump cost model's
// per-page rate. A page that borrows a frame (mem.BorrowedFrame; the zero
// page for one without content) gets a record pointing at that frame.
// The pages a running process owns are copied into one slab, an
// allocation a batch instead of one a page: sharing them would cost an
// allocation for each one written after the dump. A frozen process
// writes nothing until it is thawed, so its pages are shared instead
// (mem.AddressSpace.Share): each record is the page's own bytes, the
// batch allocates only its records, and a write after a thaw that
// changes a page copies it then.
func (t *Tool) DumpPages(p *task.Process, addrs []mem.Addr) []PageRec {
	recs := make([]PageRec, len(addrs))
	if p.Frozen() {
		for i, a := range addrs {
			recs[i] = PageRec{Addr: a, Data: p.AS.Share(a)}
		}
		t.host.Sleep(time.Duration(len(addrs)) * DumpPerPage)
		return recs
	}
	n := 0
	for _, a := range addrs {
		if _, ok := p.AS.BorrowedFrame(a); !ok {
			n++
		}
	}
	slab := make([]byte, n*mem.PageSize)
	for i, a := range addrs {
		f, ok := p.AS.BorrowedFrame(a)
		if !ok {
			p.AS.ReadPageInto(a, slab)
			f, slab = mem.FrameOf(slab), slab[mem.PageSize:]
		}
		recs[i] = PageRec{Addr: a, Data: f}
	}
	t.host.Sleep(time.Duration(len(addrs)) * DumpPerPage)
	return recs
}

// DirtyPageCount reports how many pages would be in the next diff dump.
func (t *Tool) DirtyPageCount(p *task.Process) int { return len(p.AS.DirtyPages()) }

// --- Restore ---------------------------------------------------------------

// Restore is an in-progress restoration on the migration destination.
//
// While the service still runs on the source (pre-copy), the restore
// assembles the destination instance's memory in AS, a shadow address
// space. FullRestore atomically installs AS as the process's memory and
// thaws it — the moment the migrated instance starts running on the
// destination.
type Restore struct {
	tool *Tool
	// Proc is the process being migrated.
	Proc *task.Process
	// AS is the destination instance's memory under assembly.
	AS *mem.AddressSpace

	// claimed marks VMA start addresses the plugin placed at their
	// original location (MR-backing memory, on-chip memory).
	claimed map[mem.Addr]bool
	// tempOf maps original VMA start → temporary location.
	tempOf map[mem.Addr]mem.Addr
	cursor mem.Addr

	finalized bool
	abandoned bool
}

// BeginRestore opens a restoration for the process. The process keeps
// running on the source; freezing happens at stop-and-copy.
func (t *Tool) BeginRestore(p *task.Process) *Restore {
	return &Restore{
		tool:    t,
		Proc:    p,
		AS:      mem.NewAddressSpace(),
		claimed: make(map[mem.Addr]bool),
		tempOf:  make(map[mem.Addr]mem.Addr),
		cursor:  tempBase,
	}
}

// MapAtOriginal places one image VMA at its original virtual address and
// restores its page content immediately. The MigrRDMA plugin calls this
// for MR-backing structures before memory restoration starts, so MRs can
// be registered with the application's own addresses (§3.2).
func (r *Restore) MapAtOriginal(img *Image, rec VMARec) error {
	if r.claimed[rec.Start] {
		return nil
	}
	if _, err := r.AS.Map(rec.Start, rec.Len, rec.Name); err != nil {
		return fmt.Errorf("criu: claim %s: %w", rec.Name, err)
	}
	r.claimed[rec.Start] = true
	n := 0
	for _, pg := range img.Pages {
		if pg.Addr >= rec.Start && pg.Addr < rec.Start+mem.Addr(rec.Len) {
			_ = r.AS.BorrowClean(pg.Addr, pg.Data)
			n++
		}
	}
	r.tool.host.Sleep(time.Duration(n) * RestPerPage)
	return nil
}

// PartialRestore maps every unclaimed, non-device VMA at a temporary
// address and fills it with the image's pages (Fig. 2b ②). Device VMAs
// are the plugin's responsibility.
func (r *Restore) PartialRestore(img *Image) error {
	for _, rec := range img.VMAs {
		if rec.Device || r.claimed[rec.Start] {
			continue
		}
		if _, ok := r.tempOf[rec.Start]; ok {
			continue
		}
		tmp := r.cursor
		r.cursor += mem.Addr(mem.PageCeil(rec.Len)) + mem.PageSize
		if _, err := r.AS.Map(tmp, rec.Len, "criu-temp:"+rec.Name); err != nil {
			return fmt.Errorf("criu: temp map %s: %w", rec.Name, err)
		}
		r.tempOf[rec.Start] = tmp
	}
	r.ApplyChunk(img, img.Pages, nil)
	return nil
}

// ApplyChunk applies one page-channel chunk at its pages' current
// (possibly temporary) locations (Fig. 2b merge step): full-content
// pages plus header-only zero pages, each installed as the page it lands
// on (BorrowClean) rather than copied into it. img supplies the round's memory
// table for address translation; a page of a VMA it does not list is
// skipped.
func (r *Restore) ApplyChunk(img *Image, pages []PageRec, zeros []mem.Addr) {
	n := 0
	for _, pg := range pages {
		if dst, ok := r.locate(img, pg.Addr); ok {
			_ = r.AS.BorrowClean(dst, pg.Data)
			n++
		}
	}
	for _, a := range zeros {
		if dst, ok := r.locate(img, a); ok {
			// A page shipped as a header only still pays the
			// per-page restore cost.
			_ = r.AS.BorrowClean(dst, mem.ZeroFrame)
			n++
		}
	}
	r.tool.host.Sleep(time.Duration(n) * RestPerPage)
}

// locate maps an original page address to its current location.
func (r *Restore) locate(img *Image, a mem.Addr) (mem.Addr, bool) {
	for _, rec := range img.VMAs {
		if a >= rec.Start && a < rec.Start+mem.Addr(rec.Len) {
			if r.claimed[rec.Start] || r.finalized {
				return a, true
			}
			tmp, ok := r.tempOf[rec.Start]
			if !ok {
				return 0, false
			}
			return tmp + (a - rec.Start), true
		}
	}
	return 0, false
}

// Abandon discards a partial restore after a failed migration: the
// shadow address space and its bookkeeping are dropped, and the restore
// can never be finalized or installed. The process keeps (or resumes)
// running on the source with its own memory — nothing restored here was
// ever visible to it. Abandon is idempotent.
func (r *Restore) Abandon() {
	r.abandoned = true
	r.finalized = false
	r.AS = nil
	r.claimed = nil
	r.tempOf = nil
}

// Finalize performs the final restore iteration (Fig. 2b ⑥): the last
// diff has been applied chunk by chunk, so what remains is remapping
// every temporary area to its original virtual address. The process
// stays frozen until FullRestore.
func (r *Restore) Finalize() error {
	if r.abandoned {
		return fmt.Errorf("criu: finalize of abandoned restore for %s", r.Proc.Name)
	}
	for orig, tmp := range r.tempOf {
		if err := r.AS.Remap(tmp, orig); err != nil {
			return fmt.Errorf("criu: final remap: %w", err)
		}
	}
	r.tool.host.Sleep(time.Duration(len(r.tempOf)) * RemapLat)
	r.tempOf = make(map[mem.Addr]mem.Addr)
	r.finalized = true
	return nil
}

// FullRestore installs the assembled memory as the process's address
// space and thaws it (the FullRestore command runc signals over the
// UNIX socket in §4). From this instant the migrated instance runs on
// the destination.
func (r *Restore) FullRestore() {
	if r.abandoned {
		panic("criu: FullRestore of abandoned restore")
	}
	if !r.finalized {
		panic("criu: FullRestore before Finalize")
	}
	r.Proc.AS = r.AS
	r.tool.Thaw(r.Proc)
}
