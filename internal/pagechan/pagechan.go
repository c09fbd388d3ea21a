// Package pagechan implements the pipelined multi-stream page channel
// (DESIGN.md §12): instead of dumping a whole image and then shipping
// it in one blocking transfer, the source dumps pages into fixed-size
// chunks that stream over K concurrent link streams while the
// destination applies chunks as they land — dump, wire time, and apply
// overlap instead of summing.
//
// The channel is content-aware. Zero pages ship as a 16-byte header
// instead of full content, and a per-page content-hash table elides
// pages whose bytes are unchanged since they were last shipped
// (dirty-bit false positives: the tracker marks a page dirty on any
// write, even one that restores identical bytes). Elision is sound
// because every page the channel ships is applied on the destination
// before the next round begins, so "unchanged since last shipped"
// means the destination already holds those bytes.
package pagechan

import (
	"errors"
	"fmt"
	"time"

	"migrrdma/internal/criu"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// Defaults and on-wire framing constants. The per-page header matches
// criu.Image.ByteSize's 16-byte per-page record overhead, so monolithic
// and pipelined wire totals are directly comparable; a zero page ships
// only that header.
const (
	DefaultStreams    = 4
	DefaultChunkPages = 64

	chunkHeader = 64 // per-chunk framing (seq, count, round tag)
	pageHeader  = 16 // per-page record header (address + flags)
)

// ErrAborted is returned by Stream when the channel was aborted —
// either by a compensation calling Abort or by a prior failure.
var ErrAborted = errors.New("pagechan: channel aborted")

// ErrInjected marks the FailAt test hook firing mid-round (chaos
// mid-chunk abort coverage).
var ErrInjected = errors.New("pagechan: injected mid-chunk fault")

// Chunk is one pipeline unit: a bounded batch of dumped pages plus the
// addresses of pages that were all zero (shipped header-only).
type Chunk struct {
	Seq   uint64
	Pages []criu.PageRec // full-content pages
	Zeros []mem.Addr     // all-zero pages, header-only on the wire
}

// WireBytes is the chunk's on-wire size.
func (c *Chunk) WireBytes() int {
	return chunkHeader + len(c.Pages)*(mem.PageSize+pageHeader) + len(c.Zeros)*pageHeader
}

// RoundStats describes one streamed round (predump, a pre-copy
// iteration, or the final stop-and-copy diff).
type RoundStats struct {
	Round       string
	PagesDumped int   // pages read from the source this round
	PagesSent   int   // full-content pages shipped
	ZeroPages   int   // all-zero pages shipped header-only
	DupElided   int   // pages skipped entirely (content unchanged)
	Chunks      int   // chunks put on the wire
	WireBytes   int64 // total on-wire bytes this round

	Elapsed  time.Duration // wall time of the round, dump through last apply
	DumpTime time.Duration // time the producer spent reading pages
}

// Elided counts pages whose full content stayed off the wire.
func (s RoundStats) Elided() int { return s.ZeroPages + s.DupElided }

// Config parameterizes a Session.
type Config struct {
	Streams    int // concurrent sender procs (default DefaultStreams)
	ChunkPages int // pages per chunk (default DefaultChunkPages)

	// FailAtRound/FailAtChunk inject an abort after FailAtChunk chunks
	// of the named round have been enqueued — the chaos harness's
	// mid-chunk fault hook. Zero values disable it.
	FailAtRound string
	FailAtChunk int

	// Metrics, when set, receives per-round counters under the
	// "pagechan" component with {mig, round} labels plus a staged-chunk
	// gauge. Sessions only exist in pipelined mode, so these registrations
	// never perturb monolithic-mode metric snapshots (golden hashes).
	Metrics *metrics.Registry
	MigID   string

	// Tap, when set, observes channel events ("round", "send", "recv",
	// "apply", "abort") with the chunk sequence number; the chaos
	// harness folds these into its ledger.
	Tap func(ev string, seq uint64)
}

// Session is one migration's page channel. It lives on the source and
// drives chunks to a single destination; rounds are streamed one at a
// time via Stream. Not safe for use from multiple procs concurrently
// except Abort, which may be called from a compensation at any time.
type Session struct {
	sched *sim.Scheduler
	host  criu.HostServices
	peer  string
	cfg   Config

	dedup map[mem.Addr]uint64 // content hash of the last-shipped bytes

	cond    *sim.Cond
	sendQ   []*Chunk
	applyQ  []*Chunk
	apply   func(*Chunk)
	closed  bool
	aborted bool

	produced int // chunks enqueued this round
	finished int // chunks fully sent (and applied, when applying)
	staged   int // chunks received but not yet applied
	seq      uint64

	stagedG metrics.Gauge
}

// NewSession opens a page channel from host to peer. host is the
// source host's services (the same interface criu.Tool consumes);
// sched must be the scheduler that host lives on.
func NewSession(sched *sim.Scheduler, host criu.HostServices, peer string, cfg Config) *Session {
	if cfg.Streams <= 0 {
		cfg.Streams = DefaultStreams
	}
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = DefaultChunkPages
	}
	s := &Session{
		sched: sched,
		host:  host,
		peer:  peer,
		cfg:   cfg,
		dedup: make(map[mem.Addr]uint64),
		cond:  sim.NewCond(sched, "pagechan"),
	}
	if cfg.Metrics != nil {
		s.stagedG = cfg.Metrics.Gauge("pagechan", "staged_chunks", metrics.L("mig", cfg.MigID))
	}
	return s
}

// Staged reports chunks received by the destination side but not yet
// applied. After Abort it must be zero — compensations leave no staged
// pages behind.
func (s *Session) Staged() int { return s.staged }

// Aborted reports whether the channel has been aborted.
func (s *Session) Aborted() bool { return s.aborted }

func (s *Session) tap(ev string, seq uint64) {
	if s.cfg.Tap != nil {
		s.cfg.Tap(ev, seq)
	}
}

// Abort tears the channel down: staged and queued chunks are dropped,
// blocked workers are woken, and any Stream in progress returns
// ErrAborted once its in-flight transfers drain. Idempotent; safe to
// call from a phase compensation while no round is active.
func (s *Session) Abort() {
	if s.aborted {
		return
	}
	s.aborted = true
	dropped := uint64(len(s.sendQ) + len(s.applyQ))
	s.sendQ, s.applyQ = nil, nil
	s.staged = 0
	s.stagedG.Set(0)
	s.tap("abort", dropped)
	s.cond.Broadcast()
}

// Stream ships one round of pages. addrs selects the pages (from
// criu.Tool.BeginDump); dump reads one batch of page contents at the
// dump cost model's rate; apply, when non-nil, applies a landed chunk
// on the destination (nil for the predump round, where no restore
// exists yet — the round then overlaps dump with wire time only).
//
// The calling proc is the producer: it dumps chunk-sized batches and
// feeds a bounded window (2×Streams chunks) so memory stays bounded
// and dump throttles to wire speed. Stream spawns the sender and
// applier procs for the round and tears them down before returning.
// Chunks may land out of order across the K streams; that is sound
// because page addresses within a round are unique and chunks are
// independent.
func (s *Session) Stream(round string, addrs []mem.Addr,
	dump func([]mem.Addr) []criu.PageRec, apply func(*Chunk)) (RoundStats, error) {

	st := RoundStats{Round: round}
	if s.aborted {
		return st, ErrAborted
	}
	if len(addrs) == 0 {
		return st, nil
	}
	start := s.host.Now()
	s.tap("round", uint64(len(addrs)))
	s.closed = false
	s.produced, s.finished = 0, 0
	s.apply = apply

	workers := sim.NewWaitGroup(s.sched, "pagechan-workers")
	for i := 0; i < s.cfg.Streams; i++ {
		workers.Add(1)
		name := fmt.Sprintf("pagechan-send-%d", i)
		s.sched.Go(name, func() {
			defer workers.Done()
			s.sender()
		})
	}
	if apply != nil {
		workers.Add(1)
		s.sched.Go("pagechan-apply", func() {
			defer workers.Done()
			s.applier()
		})
	}

	var err error
	for off := 0; off < len(addrs) && err == nil; off += s.cfg.ChunkPages {
		end := off + s.cfg.ChunkPages
		if end > len(addrs) {
			end = len(addrs)
		}
		t0 := s.host.Now()
		recs := dump(addrs[off:end])
		st.DumpTime += s.host.Now() - t0
		st.PagesDumped += len(recs)
		ch := s.buildChunk(recs, &st)
		// Bounded pipeline window: throttle the dump to wire speed.
		for !s.aborted && s.produced-s.finished >= 2*s.cfg.Streams {
			s.cond.Wait()
		}
		if s.aborted {
			err = ErrAborted
			break
		}
		if ch == nil {
			continue // whole batch elided: nothing on the wire
		}
		s.seq++
		ch.Seq = s.seq
		s.produced++
		st.Chunks++
		st.WireBytes += int64(ch.WireBytes())
		s.sendQ = append(s.sendQ, ch)
		s.tap("send", ch.Seq)
		s.cond.Broadcast()
		if s.cfg.FailAtChunk > 0 && round == s.cfg.FailAtRound && st.Chunks >= s.cfg.FailAtChunk {
			s.Abort()
			err = fmt.Errorf("%w (round %s, chunk %d)", ErrInjected, round, st.Chunks)
		}
	}
	s.closed = true
	s.cond.Broadcast()
	for !s.aborted && s.finished < s.produced {
		s.cond.Wait()
	}
	if s.aborted && err == nil {
		err = ErrAborted
	}
	workers.Wait()
	s.apply = nil
	st.Elapsed = s.host.Now() - start
	s.record(st)
	return st, err
}

// buildChunk filters one dumped batch through the elision table.
func (s *Session) buildChunk(recs []criu.PageRec, st *RoundStats) *Chunk {
	ch := &Chunk{}
	for _, r := range recs {
		h := hashPage(r.Data)
		if prev, ok := s.dedup[r.Addr]; ok && prev == h {
			st.DupElided++
			continue
		}
		s.dedup[r.Addr] = h
		if mem.AllZero(r.Data) {
			ch.Zeros = append(ch.Zeros, r.Addr)
			st.ZeroPages++
			continue
		}
		ch.Pages = append(ch.Pages, r)
		st.PagesSent++
	}
	if len(ch.Pages) == 0 && len(ch.Zeros) == 0 {
		return nil
	}
	return ch
}

func (s *Session) sender() {
	for {
		for !s.aborted && len(s.sendQ) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.aborted || len(s.sendQ) == 0 {
			return
		}
		ch := s.sendQ[0]
		s.sendQ = s.sendQ[1:]
		s.host.TransferTo(s.peer, ch.WireBytes())
		if s.aborted {
			return // chunk arrived after abort: dropped, never staged
		}
		s.tap("recv", ch.Seq)
		if s.apply == nil {
			s.finished++
			s.cond.Broadcast()
			continue
		}
		s.staged++
		s.stagedG.Set(int64(s.staged))
		s.applyQ = append(s.applyQ, ch)
		s.cond.Broadcast()
	}
}

func (s *Session) applier() {
	for {
		for !s.aborted && len(s.applyQ) == 0 && !(s.closed && s.finished == s.produced && len(s.sendQ) == 0) {
			s.cond.Wait()
		}
		if s.aborted || len(s.applyQ) == 0 {
			return
		}
		ch := s.applyQ[0]
		s.applyQ = s.applyQ[1:]
		s.apply(ch)
		s.staged--
		s.stagedG.Set(int64(s.staged))
		s.finished++
		s.tap("apply", ch.Seq)
		s.cond.Broadcast()
	}
}

// record folds a finished round into the registry (lazy, labelled by
// round so per-iteration bytes_on_wire / pages_elided are queryable).
func (s *Session) record(st RoundStats) {
	if s.cfg.Metrics == nil {
		return
	}
	b := s.cfg.Metrics.Block("pagechan", metrics.L("mig", s.cfg.MigID, "round", st.Round), 4)
	b.Counter("bytes_on_wire").Add(st.WireBytes)
	b.Counter("pages_sent").Add(int64(st.PagesSent))
	b.Counter("pages_elided").Add(int64(st.Elided()))
	b.Counter("chunks_sent").Add(int64(st.Chunks))
}

// hashPage is FNV-1a 64 over the page bytes — the dedup table's
// content fingerprint. A collision would elide a genuinely changed
// page; at 2^-64 per pair over per-address histories this is
// negligible against the simulated error budget (DESIGN.md §12).
func hashPage(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
