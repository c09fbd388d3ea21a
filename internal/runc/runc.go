// Package runc models the container runtime layer of the paper's
// prototype (§4): containers holding an init process and exec'd
// processes, and the extended command set of Table 2 —
// CheckpointRDMA, PartialRestore, FullRestore, and the migration-aware
// Exec — driving CRIU and the MigrRDMA plugin through the full live
// migration workflow of Fig. 2(b).
package runc

import (
	"fmt"
	"math"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/criu"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/pagechan"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// blackoutBucketsUS are the histogram bounds (µs) for the migration
// blackout distributions — Fig. 3 spans ~hundreds of µs (pre-setup) to
// ~hundreds of ms (baseline).
var blackoutBucketsUS = []int64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000}

// Container is a running container: an init process plus any number of
// exec'd processes, all migrated together (§4 runs one CRIU per root
// process).
type Container struct {
	Name  string
	Host  *cluster.Host
	Procs []*task.Process
}

// NewContainer creates an empty container on a host.
func NewContainer(h *cluster.Host, name string) *Container {
	return &Container{Name: name, Host: h}
}

// Start creates the container's init process and runs main as its
// entry point (the runc Start command).
func (c *Container) Start(main func(p *task.Process)) *task.Process {
	if len(c.Procs) > 0 {
		panic("runc: container already started")
	}
	return c.spawn(c.Name+"/init", main)
}

// Exec starts an additional process in the container (the extended
// Exec command, which also supports restoration).
func (c *Container) Exec(name string, main func(p *task.Process)) *task.Process {
	if len(c.Procs) == 0 {
		panic("runc: Exec before Start")
	}
	return c.spawn(c.Name+"/"+name, main)
}

func (c *Container) spawn(name string, main func(p *task.Process)) *task.Process {
	p := task.New(c.Host.Sched, name)
	c.Procs = append(c.Procs, p)
	if main != nil {
		c.Host.Sched.Go(name, func() { main(p) })
	}
	return p
}

// CutoverMode selects how in-flight traffic is handled across the
// migration pause.
type CutoverMode int

const (
	// CutoverGoBackN (the paper's cutover) lets blackout-window traffic
	// bounce off the suspended QPs and relies on RC go-back-N / RNR
	// retransmission to recover it after RESUME.
	CutoverGoBackN CutoverMode = iota
	// CutoverPlugForward buffers blackout traffic in a destination-side
	// plug, tunnels source-side stragglers into the same buffer, and
	// flushes everything in arrival order ahead of live traffic at
	// RESUME — zero loss, zero retransmission on the fault-free path.
	CutoverPlugForward
)

// String renders the mode the way the CLIs spell it.
func (c CutoverMode) String() string {
	if c == CutoverPlugForward {
		return "plug-forward"
	}
	return "go-back-n"
}

// TransferMode selects how checkpoint images move to the destination.
type TransferMode int

const (
	// TransferMonolithic (the paper's workflow) dumps a whole round,
	// ships it as one chunk, then applies it — dump, wire time, and
	// apply sum — for a fixed budget of pre-copy iterations.
	TransferMonolithic TransferMode = iota
	// TransferPipelined streams chunk-sized page batches over
	// pagechan.Streams concurrent link streams while the destination applies chunks as
	// they land, with zero-page and duplicate-page elision and adaptive
	// pre-copy convergence.
	TransferPipelined
)

// String renders the mode the way the CLIs spell it.
func (t TransferMode) String() string {
	if t == TransferPipelined {
		return "pipelined"
	}
	return "monolithic"
}

// MigrateOptions tunes a live migration.
type MigrateOptions struct {
	// PreSetup enables RDMA communication pre-setup during partial
	// restore (§3.2); disabling it reproduces the paper's baseline that
	// restores RDMA inside the blackout.
	PreSetup bool
	// Cutover selects the blackout-traffic strategy; the zero value is
	// the paper's go-back-N cutover.
	Cutover CutoverMode
	// Transfer selects the page channel's preset (internal/pagechan
	// carries every round in both); the zero value is the paper's
	// monolithic dump-then-send workflow. Pipelined mode replaces the
	// maxPreCopyIters bound with the channel's adaptive convergence
	// controller (dirtyPageThreshold remains the convergence floor).
	Transfer TransferMode
	// ChunkPages is the page-channel chunk size in pages; 0 takes
	// pagechan.DefaultChunkPages. A monolithic round is one chunk
	// whatever this says.
	ChunkPages int
}

// DefaultMigrateOptions mirrors the paper's configuration.
func DefaultMigrateOptions() MigrateOptions {
	return MigrateOptions{PreSetup: true}
}

// Pre-copy's limits in both transfer modes.
const (
	// maxPreCopyIters bounds the monolithic dirty-page iterations
	// (write-heavy RDMA workloads never converge, as on real systems).
	maxPreCopyIters = 3
	// dirtyPageThreshold stops iterating when a diff is this small.
	dirtyPageThreshold = 64
)

// Report is the outcome of one migration, with the Fig. 3 blackout
// breakdown.
type Report struct {
	// Blackout components (§5.2): with pre-setup the blackout is
	// DumpOthers+Transfer+FullRestore; without it, all five.
	DumpRDMA    time.Duration
	DumpOthers  time.Duration
	Transfer    time.Duration
	RestoreRDMA time.Duration
	FullRestore time.Duration

	// ServiceBlackout is freeze→thaw; CommBlackout is communication
	// suspension→resumption; Total is the whole migration.
	ServiceBlackout time.Duration
	CommBlackout    time.Duration
	Total           time.Duration

	// WBS is the source-side wait-before-stop result (§3.4/§5.4).
	WBS core.WBSResult
	// PartnerWBS is the slowest partner-side wait-before-stop.
	PartnerWBS core.WBSResult

	PreCopyIterations int
	PagesTransferred  int

	// DistinctPages counts unique page addresses shipped across all
	// rounds. PagesTransferred counts per-round page records, so the
	// gap between the two is the re-send volume — including the
	// final-dump double-count of pages already shipped in the last
	// pre-copy diff and unchanged since.
	DistinctPages int
	// WireBytes is the total on-wire image volume across all rounds
	// (framing + page content + plugin blob).
	WireBytes int64
	// FinalWireBytes is the stop-and-copy round's on-wire volume — the
	// number iterative pre-copy exists to shrink.
	FinalWireBytes int64
	// PagesElided counts pages whose full content stayed off the wire
	// (zero pages shipped header-only plus content-hash duplicates).
	// Always 0 in monolithic mode.
	PagesElided int
	// Rounds carries the page channel's per-round stats: predump, the
	// pre-copy iterations, final.
	Rounds []pagechan.RoundStats

	// PlugFlushed is the number of frames released from the destination
	// plug at RESUME (plug-forward cutover only).
	PlugFlushed int

	// MigrationID is the Migrator.ID this report belongs to.
	MigrationID string
}

// Blackout returns the sum of the blackout components.
func (r *Report) Blackout() time.Duration {
	return r.DumpRDMA + r.DumpOthers + r.Transfer + r.RestoreRDMA + r.FullRestore
}

// String renders the breakdown.
func (r *Report) String() string {
	return fmt.Sprintf(
		"DumpRDMA=%v DumpOthers=%v Transfer=%v RestoreRDMA=%v FullRestore=%v | blackout=%v comm=%v total=%v wbs=%v iters=%d",
		r.DumpRDMA.Round(time.Microsecond), r.DumpOthers.Round(time.Microsecond),
		r.Transfer.Round(time.Microsecond), r.RestoreRDMA.Round(time.Microsecond),
		r.FullRestore.Round(time.Microsecond), r.Blackout().Round(time.Microsecond),
		r.CommBlackout.Round(time.Microsecond), r.Total.Round(time.Microsecond),
		r.WBS.Elapsed.Round(time.Microsecond), r.PreCopyIterations)
}

// Migrator drives one container migration (the role of the cloud
// manager calling runc's extended commands).
type Migrator struct {
	C    *Container
	Dst  *cluster.Host
	Plug *core.Plugin
	Opts MigrateOptions

	// ID is the stable migration identifier threaded through daemon
	// handlers, stream events, and metrics labels so overlapping
	// migrations stay distinguishable. Empty defaults to "m0" — a
	// constant, not a global counter, to keep same-seed runs
	// byte-identical. Cluster-level callers (internal/migmgr) assign
	// unique IDs.
	ID string

	// ExtraPlugs supplies one additional plugin per additional
	// RDMA-holding process in a multi-process container.
	ExtraPlugs []*core.Plugin

	// Stage names the workflow step in progress, for diagnostics.
	Stage string
}

// setStage records a stage transition and emits it as a stage event on
// the migration driver proc, returning the listener's verdict: the
// phase engine fails a phase whose opening stage event is refused,
// which is how tests and the chaos fail-and-recover harness time faults
// to phases and exercise the compensation path.
func (m *Migrator) setStage(stage string) error {
	m.Stage = stage
	return m.C.Host.Metrics.Emit(metrics.Event{Kind: "stage", Mig: m.ID, Note: stage})
}

// Migrate runs the complete live migration workflow of Fig. 2(b) for
// the container and returns the phase report. Multi-process containers
// are migrated the way §4 does: one checkpoint/restore pipeline per
// root process (at most one of which may hold an RDMA session per
// plugin instance — supply extra plugins with ExtraPlugs for more).
// It must run in a managed proc.
func (m *Migrator) Migrate() (*Report, error) {
	if len(m.C.Procs) == 0 {
		return nil, fmt.Errorf("runc: empty container")
	}
	if m.ID == "" {
		m.ID = "m0"
	}
	if m.Plug != nil {
		m.Plug.ID = m.ID
	}
	for _, plug := range m.ExtraPlugs {
		plug.ID = m.ID
	}
	if len(m.C.Procs) == 1 {
		return m.migrateProc(m.C.Procs[0], m.Plug, true)
	}
	// Multi-process: each process gets its own pipeline; RDMA-holding
	// processes each need their own plugin instance. Validate the plugin
	// supply up front so a mismatch fails before any process migrates.
	plugs := append([]*core.Plugin{m.Plug}, m.ExtraPlugs...)
	rdma := 0
	for _, p := range m.C.Procs {
		if _, ok := p.Attachment.(*core.Session); ok {
			rdma++
		}
	}
	if rdma > len(plugs) {
		return nil, fmt.Errorf("runc: %d RDMA processes but only %d plugins", rdma, len(plugs))
	}
	pi := 0
	var total *Report
	for _, p := range m.C.Procs {
		var plug *core.Plugin
		if _, ok := p.Attachment.(*core.Session); ok {
			plug = plugs[pi]
			pi++
		} else {
			plug = plugs[0]
		}
		rep, err := m.migrateProc(p, plug, p == m.C.Procs[len(m.C.Procs)-1])
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = rep
		} else {
			total.DumpRDMA += rep.DumpRDMA
			total.DumpOthers += rep.DumpOthers
			total.Transfer += rep.Transfer
			total.RestoreRDMA += rep.RestoreRDMA
			total.FullRestore += rep.FullRestore
			if rep.ServiceBlackout > total.ServiceBlackout {
				total.ServiceBlackout = rep.ServiceBlackout
			}
			if rep.CommBlackout > total.CommBlackout {
				total.CommBlackout = rep.CommBlackout
			}
			total.Total += rep.Total
			total.PagesTransferred += rep.PagesTransferred
			total.DistinctPages += rep.DistinctPages
			total.WireBytes += rep.WireBytes
			total.FinalWireBytes += rep.FinalWireBytes
			total.PagesElided += rep.PagesElided
			total.Rounds = append(total.Rounds, rep.Rounds...)
			if rep.WBS.Elapsed > total.WBS.Elapsed {
				total.WBS = rep.WBS
			}
		}
	}
	return total, nil
}

// migrateProc runs the workflow for one process. moveContainer marks
// the last process, after which the container bookkeeping moves.
func (m *Migrator) migrateProc(p *task.Process, plug *core.Plugin, moveContainer bool) (*Report, error) {
	src, dst := m.C.Host, m.Dst
	sched := src.Sched
	srcTool, dstTool := src.CRIU, dst.CRIU
	rep := &Report{MigrationID: m.ID}
	start := sched.Now()

	hasRDMA := false
	if _, ok := p.Attachment.(*core.Session); ok {
		hasRDMA = true
		if err := plug.Attach(p); err != nil {
			return nil, err
		}
	}

	// Workflow state threaded through the phase closures.
	var (
		img              *criu.Image // of the latest round: predump's until pre-copy starts
		restore          *criu.Restore
		apply            func(*pagechan.Chunk) // lands a chunk in restore, once there is one
		finalBlob        []byte
		preSetup         = sim.NewWaitGroup(sched, "pre-setup")
		preSetupLaunched bool
		preSetupErr      error
		commStart        time.Duration
		svcStart         time.Duration
		restoreStart     time.Duration // of the open FullRestore span
		frozen           bool
		finalAddrs       []mem.Addr
		final            pagechan.RoundStats
		distinct         map[mem.Addr]struct{}
	)

	// Every round of pages leaves through the page channel; the transfer
	// mode only picks the channel's parameters (DESIGN.md §12).
	cfg := pagechan.Config{ChunkPages: m.Opts.ChunkPages, Metrics: src.Metrics, MigID: m.ID}
	ctl := pagechan.NewController(dirtyPageThreshold)
	if m.Opts.Transfer == TransferMonolithic {
		// The paper's workflow: whole rounds, and a fixed iteration
		// budget in place of the shrink test.
		cfg.Monolithic = true
		ctl.MaxIters, ctl.Epsilon = maxPreCopyIters, math.Inf(-1)
	}
	pchan := pagechan.NewSession(sched, src, dst.Name, cfg)

	// stream ships the pages of the round that BeginDump opened as img
	// through the channel and folds the round into the report. Until a
	// restore exists (predump) nothing can be applied: the pages
	// accumulate in the image for PartialRestore.
	dump := func(b []mem.Addr) []criu.PageRec {
		recs := srcTool.DumpPages(p, b)
		if apply == nil {
			img.Pages = append(img.Pages, recs...)
		}
		return recs
	}
	stream := func(round string, addrs []mem.Addr) (pagechan.RoundStats, error) {
		if distinct == nil {
			// The first round ships every populated page: few addresses
			// join later.
			distinct = make(map[mem.Addr]struct{}, len(addrs))
			rep.Rounds = make([]pagechan.RoundStats, 0, 2+ctl.MaxIters)
		}
		for _, a := range addrs {
			distinct[a] = struct{}{}
		}
		st, err := pchan.Stream(round, addrs, dump, apply)
		rep.Rounds = append(rep.Rounds, st)
		rep.PagesTransferred += st.PagesDumped
		rep.PagesElided += st.Elided()
		rep.WireBytes += st.WireBytes
		return st, err
	}
	// shipHeader sends what of the image did not go through the channel:
	// the memory table and the plugin blob.
	shipHeader := func() int64 {
		hdr := img.HeaderBytes()
		src.TransferTo(dst.Name, hdr)
		rep.WireBytes += int64(hdr)
		return int64(hdr)
	}

	phases := []phase{
		// ①: pre-dump memory and (with pre-setup) RDMA state. Read-only
		// on the source — a retried migration re-dumps in full — so the
		// only compensation is draining the page channel's in-flight
		// chunks.
		{name: "predump", run: func() error {
			var addrs []mem.Addr
			img, addrs = srcTool.BeginDump(p, true)
			if _, err := stream("predump", addrs); err != nil {
				return err
			}
			if hasRDMA && m.Opts.PreSetup {
				var err error
				if img.PluginBlob, err = plug.PreDump(p); err != nil {
					return err
				}
			}
			shipHeader()
			return nil
		}, compensate: pchan.Abort},

		// ②: partial restore on the destination, with RDMA pre-setup
		// replaying the roadmap in parallel with memory restoration.
		{
			name: "partial-restore",
			run: func() error {
				restore = dstTool.BeginRestore(p)
				apply = func(ch *pagechan.Chunk) { restore.ApplyChunk(img, ch.Pages, ch.Zeros) }
				if hasRDMA && m.Opts.PreSetup {
					// Claim MR-backing memory at its original addresses
					// before the temporary mappings of partial restore
					// (§3.2); quick.
					if err := plug.PreRestore(restore, img, img.PluginBlob); err != nil {
						return err
					}
					// The expensive part — replaying the roadmap and
					// partner pre-setup — overlaps the pre-copy iterations.
					preSetup.Add(1)
					preSetupLaunched = true
					sched.Go("rdma-presetup", func() {
						defer preSetup.Done()
						preSetupErr = plug.RunPreSetup()
					})
				}
				return restore.PartialRestore(img)
			},
			compensate: func() {
				// Let an in-flight pre-setup finish before tearing down
				// what it builds.
				if preSetupLaunched {
					preSetup.Wait()
				}
				if hasRDMA {
					plug.AbortPartners()
					plug.AbortStaging()
				}
				if restore != nil {
					restore.Abandon()
				}
			},
		},

		// Iterative pre-copy (Fig. 2b loop on ① / ②), then the pre-setup
		// barrier. The controller stops at the dirty-page floor, at its
		// iteration cap, or (pipelined) when its dirty-rate model says
		// the final transfer has stopped shrinking.
		{name: "precopy", run: func() error {
			for ctl.Continue(srcTool.DirtyPageCount(p)) {
				var addrs []mem.Addr
				if img, addrs = srcTool.BeginDump(p, false); len(addrs) == 0 {
					// Every remaining dirty page is device memory — the
					// plugin's job, nothing the channel can ship.
					break
				}
				st, err := stream("precopy", addrs)
				if err != nil {
					return err
				}
				rep.PreCopyIterations++
				ctl.Observe(st, srcTool.DirtyPageCount(p))
			}
			preSetup.Wait()
			return preSetupErr
		}, compensate: pchan.Abort},

		// ③: suspension + wait-before-stop on the source and all
		// partners, in parallel (§3.4).
		{
			name: "suspend-wbs",
			run: func() error {
				commStart = sched.Now()
				if !hasRDMA {
					return nil
				}
				wbsWG := sim.NewWaitGroup(sched, "wbs")
				wbsWG.Add(1)
				var partnerErr error
				sched.Go("suspend-partners", func() {
					defer wbsWG.Done()
					partnerErr = plug.SuspendPartners()
				})
				rep.WBS = plug.SuspendSource()
				wbsWG.Wait()
				if partnerErr != nil {
					return partnerErr
				}
				rep.PartnerWBS = plug.WorstPartnerWBS()
				return nil
			},
			// Partner-side un-suspension rides the partial-restore
			// compensation's abort notification; here only the source
			// resumes.
			compensate: func() {
				if hasRDMA {
					plug.AbortSource()
				}
			},
		},

		// ④: freeze the service. The service blackout begins.
		{
			name: "freeze",
			run: func() error {
				svcStart = sched.Now()
				srcTool.Freeze(p)
				frozen = true
				return nil
			},
			compensate: func() {
				if frozen {
					srcTool.Thaw(p)
					frozen = false
				}
			},
		},

		// ⑤ ∥ ⑤': the final memory diff is opened (table walk and page
		// selection; the pages are read as the transfer phase streams
		// them) while the final RDMA diff is dumped, in parallel.
		{name: "final-dump", run: func() error {
			wg := sim.NewWaitGroup(sched, "final-dump")
			var dumpErr error
			if hasRDMA {
				wg.Add(1)
				sched.Go("final-dump-rdma", func() {
					defer wg.Done()
					start := sched.Now()
					finalBlob, dumpErr = plug.FinalDump(p)
					rep.DumpRDMA = sched.Now() - start
				})
			}
			start := sched.Now()
			img, finalAddrs = srcTool.BeginDump(p, false)
			rep.DumpOthers = sched.Now() - start
			wg.Wait()
			if dumpErr != nil {
				return dumpErr
			}
			img.PluginBlob = finalBlob
			return nil
		}, compensate: pchan.Abort},

		{name: "transfer", run: func() error {
			start := sched.Now()
			var err error
			if final, err = stream("final", finalAddrs); err == nil {
				rep.FinalWireBytes = final.WireBytes + shipHeader()
			}
			rep.Transfer = sched.Now() - start
			return err
		}, compensate: pchan.Abort},

		// ⑥: final iteration of memory restoration; with pre-setup, ⑥'
		// (mapping the new RDMA resources into the restored process)
		// happens here too.
		{
			name: "finalize",
			run: func() error {
				restoreStart = sched.Now()
				if err := restore.Finalize(); err != nil {
					return err
				}
				if hasRDMA && m.Opts.PreSetup {
					return plug.PostRestore(restore, p, finalBlob)
				}
				return nil
			},
			compensate: func() {
				if hasRDMA {
					plug.AbortAdoption()
				}
			},
		},
	}

	if hasRDMA {
		if !m.Opts.PreSetup {
			// ⑥' without pre-setup: the whole RDMA restore happens here —
			// inside the blackout.
			phases = append(phases, phase{
				name: "post-restore",
				run: func() error {
					// RestoreRDMA is cut out of the FullRestore span.
					rep.FullRestore += sched.Now() - restoreStart
					start := sched.Now()
					err := plug.PostRestore(restore, p, finalBlob)
					rep.RestoreRDMA = sched.Now() - start
					restoreStart = sched.Now()
					return err
				},
				// Adoption rollback lives in the finalize compensation,
				// which always runs when this phase unwinds.
			})
		}
		if m.Opts.Cutover == CutoverPlugForward {
			phases = append(phases,
				// Plug-and-forward cutover: the destination plugs the
				// restored QPs before partners switch, so frames the
				// resumed partners send ahead of the migrated service's
				// own resume wait in order instead of bouncing off empty
				// receive queues (RNR → retransmission).
				phase{
					name:       "install-plug",
					run:        plug.InstallPlug,
					compensate: func() { plug.DiscardPlug() },
				},
				// The source tunnels stragglers for the suspended QPs into
				// the same plug; as a side effect, the dumped transport
				// state can no longer diverge under late arrivals.
				phase{
					name:       "install-forward",
					run:        func() error { return plug.InstallForward() },
					compensate: func() { plug.RemoveForward() },
				},
			)
		}
		phases = append(phases,
			// Partner switch-over precedes resumption so rkey fetches
			// from the resumed service find live peers (right before ⑦).
			// This is the commit point: once partners switched, their old
			// QPs are destroyed and the migration can no longer roll
			// back — failures past here are surfaced, not compensated.
			phase{name: "switch-partners", commit: true, run: func() error {
				if m.Opts.Cutover == CutoverPlugForward {
					// Re-point the partners but keep them suspended: they
					// resume in the resume-partners phase, after the thaw,
					// so their replayed traffic meets a live service (any
					// head start lands in the plug, not in go-back-N).
					return plug.SwitchPartnersDeferred()
				}
				return plug.SwitchPartners()
			}},
			// ⑦: post intercepted WRs, replay pending RECVs.
			phase{name: "resume", run: func() error {
				return plug.ResumeMigrated()
			}},
		)
		if m.Opts.Cutover == CutoverPlugForward {
			phases = append(phases,
				// Partners resume only now, after ⑦ has replayed the
				// migrated side's RECVs: their replayed traffic meets posted
				// receives instead of bouncing off drained queues
				// (RNR → retransmit). The application thaw is NOT a
				// prerequisite — delivery is device-level, completions queue
				// in the restored CQs until the process polls — so running
				// this before the thaw keeps the thaw latency off the
				// cutover path. Any frames that outrun this RPC's return
				// wait in the plug.
				phase{name: "resume-partners", run: func() error {
					return plug.ResumePartners()
				}},
				// Flush in arrival order, ahead of live traffic. Ordering is
				// safe: until this phase runs, anything a peer sends at the
				// migrated QPs lands behind the plugged frames. The
				// source-side forwarding rule stays up until source reclaim
				// so in-flight retries aimed at the dead source QPs still
				// reach the restored responder's PSN window instead of
				// vanishing; teardown happens in ReleasePlug, off the
				// blackout's critical path.
				phase{name: "flush-plug", run: func() error {
					rep.PlugFlushed = plug.FlushPlug()
					return nil
				}},
			)
		}
	}

	phases = append(phases, phase{name: "thaw", run: func() error {
		restore.FullRestore()
		rep.FullRestore += sched.Now() - restoreStart
		return nil
	}})

	if err := m.runPhases(p, phases); err != nil {
		return nil, err
	}
	m.setStage("done")
	rep.DistinctPages = len(distinct)
	rep.ServiceBlackout = sched.Now() - svcStart
	rep.CommBlackout = sched.Now() - commStart
	if reg := src.Metrics; reg != nil {
		b := reg.Block("migr", metrics.L("proc", p.Name, "mig", m.ID), 3)
		b.Histogram("service_blackout_us", blackoutBucketsUS).
			Observe(rep.ServiceBlackout.Microseconds())
		b.Histogram("comm_blackout_us", blackoutBucketsUS).
			Observe(rep.CommBlackout.Microseconds())
		b.Counter("migrations").Inc()
	}

	// The source reclaims the migrated service's resources (off the
	// critical path).
	if hasRDMA {
		sched.Go("reclaim-source", func() {
			// Plug-mode teardown first: once the forwarding rule is
			// gone, destroying the source QPs can't strand a frame
			// mid-tunnel. No-op in go-back-N mode.
			plug.ReleasePlug()
			plug.ReclaimSource()
		})
	}

	// The final round ran inside the transfer span, but its two ends —
	// reading pages before anything is on the wire, applying after the
	// last chunk landed — are dump and restore time (all of both when
	// the round was one chunk, as every monolithic round is).
	rep.DumpOthers += final.Fill
	rep.Transfer -= final.Fill + final.Drain
	rep.FullRestore += final.Drain
	if m.Opts.PreSetup {
		// Pre-setup moves DumpRDMA and RestoreRDMA (never measured then:
		// there is no post-restore phase) out of the blackout (§5.2);
		// report only the blackout components.
		rep.DumpRDMA = 0
	}
	if moveContainer {
		// Move the container's bookkeeping to the destination.
		m.C.Host = dst
	}
	rep.Total = sched.Now() - start
	return rep, nil
}
