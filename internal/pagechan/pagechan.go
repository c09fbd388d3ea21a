// Package pagechan is the page channel (DESIGN.md §12), the one way a
// round of pages leaves a migration source: the source dumps pages
// into chunks, the chunks cross the link, and the destination applies
// them as they land. A round of several chunks streams over
// Streams concurrent link streams, so dump, wire time and apply overlap
// instead of summing; a round that fits one chunk has nothing to
// overlap and runs dump → transfer → apply on the calling proc. The
// paper's monolithic workflow is the Monolithic preset: every round is
// one chunk.
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
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"migrrdma/internal/criu"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// The sender procs of a round of several chunks, the default chunk size
// and the on-wire framing. A zero page ships only its per-page header.
const (
	Streams           = 4
	DefaultChunkPages = 64

	chunkHeader = 64 // per-chunk framing (seq, count, round tag)
	pageHeader  = 16 // per-page record header (address + flags)
)

// ErrAborted is returned by Stream when the channel was aborted —
// either by a compensation calling Abort or by a prior failure.
var ErrAborted = errors.New("pagechan: channel aborted")

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

	Elapsed time.Duration // wall time of the round, dump through last apply
	// Fill and Drain are the ends of a completed round during which the
	// wire was idle: from its start until the first chunk was handed
	// over (dump only; the whole round when everything was elided), and
	// from the last chunk's arrival until its end (apply only). A round
	// of one chunk is Fill + wire time + Drain exactly.
	Fill, Drain time.Duration
}

// Elided counts pages whose full content stayed off the wire.
func (s RoundStats) Elided() int { return s.ZeroPages + s.DupElided }

// Config parameterizes a Session.
type Config struct {
	ChunkPages int // pages per chunk (default DefaultChunkPages)

	// Monolithic is the paper's dump → ship → apply workflow as a preset
	// of the channel: a round is one chunk whatever its size, and every
	// page ships in full (no zero-page or duplicate elision).
	Monolithic bool

	// Metrics, when set, receives the session's counters and its
	// staged-chunk gauge under the "pagechan" component, labelled {mig},
	// and its pchan events ("round", "send", "recv", "apply", "abort",
	// each with a chunk sequence number or a page count). A listener
	// that refuses a "send" aborts the round at that chunk.
	Metrics *metrics.Registry
	MigID   string
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

	// dedup is the content hash of each page's last-shipped bytes; nil
	// when the session does not elide.
	dedup map[mem.Addr]uint64

	cond    sim.Cond
	sendQ   []*Chunk
	applyQ  []*Chunk
	apply   func(*Chunk)
	closed  bool
	aborted bool

	produced int // chunks enqueued this round
	finished int // chunks fully sent (and applied, when applying)
	staged   int // chunks received but not yet applied
	seq      uint64
	lastRecv time.Duration // when the round's latest chunk arrived

	stagedG                                       metrics.Gauge
	wireBytes, pagesSent, pagesElided, chunksSent metrics.Counter
}

// NewSession opens a page channel from host to peer. host is the
// source host's services (the same interface criu.Tool consumes);
// sched must be the scheduler that host lives on.
func NewSession(sched *sim.Scheduler, host criu.HostServices, peer string, cfg Config) *Session {
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = DefaultChunkPages
	}
	s := &Session{
		sched: sched,
		host:  host,
		peer:  peer,
		cfg:   cfg,
	}
	s.cond.Init(sched, "pagechan")
	if !cfg.Monolithic {
		s.dedup = make(map[mem.Addr]uint64)
	}
	if cfg.Metrics != nil {
		b := cfg.Metrics.Block("pagechan", metrics.L("mig", cfg.MigID), 5)
		s.stagedG = b.Gauge("staged_chunks")
		s.wireBytes = b.Counter("bytes_on_wire")
		s.pagesSent = b.Counter("pages_sent")
		s.pagesElided = b.Counter("pages_elided")
		s.chunksSent = b.Counter("chunks_sent")
	}
	return s
}

// Staged reports chunks received by the destination side but not yet
// applied. After Abort it must be zero — compensations leave no staged
// pages behind.
func (s *Session) Staged() int { return s.staged }

// Aborted reports whether the channel has been aborted.
func (s *Session) Aborted() bool { return s.aborted }

// emit returns the listener's verdict on the event.
func (s *Session) emit(ev string, seq uint64) error {
	return s.cfg.Metrics.Emit(metrics.Event{Kind: "pchan", Mig: s.cfg.MigID, Seq: seq, Note: ev})
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
	s.emit("abort", dropped)
	s.cond.Broadcast()
}

// Stream ships one round of pages. addrs selects the pages (from
// criu.Tool.BeginDump); dump reads one batch of page contents at the
// dump cost model's rate; apply, when non-nil, applies a landed chunk
// on the destination (nil for the predump round, where no restore
// exists yet).
//
// The calling proc is the producer: it dumps chunk-sized batches and
// feeds a bounded window (2×Streams chunks) so memory stays bounded
// and dump throttles to wire speed. A round of several chunks gets
// sender and applier procs for its duration; chunks may then land out
// of order across the streams, which is sound because page addresses
// within a round are unique and chunks are independent. A round of one
// chunk has nothing to overlap, so the calling proc sends and applies
// it itself — same events, same stats, same refusal and Abort
// semantics, no proc spawned.
func (s *Session) Stream(round string, addrs []mem.Addr,
	dump func([]mem.Addr) []criu.PageRec, apply func(*Chunk)) (RoundStats, error) {

	chunk := s.cfg.ChunkPages
	if s.cfg.Monolithic {
		chunk = len(addrs)
	}
	return s.stream(round, addrs, dump, apply, chunk, len(addrs) > chunk)
}

// stream is Stream with the chunk size and the choice of who moves the
// chunks made by the caller: worker procs, or the calling proc once
// the round is produced.
func (s *Session) stream(round string, addrs []mem.Addr, dump func([]mem.Addr) []criu.PageRec,
	apply func(*Chunk), chunk int, workers bool) (RoundStats, error) {

	st := RoundStats{Round: round}
	if s.aborted {
		return st, ErrAborted
	}
	if len(addrs) == 0 {
		return st, nil
	}
	start := s.host.Now()
	s.emit("round", uint64(len(addrs)))
	s.closed = false
	s.produced, s.finished = 0, 0
	s.apply = apply

	var procs *sim.WaitGroup // the round's worker procs, when it has any
	if workers {
		// The closures capture wg, which is never reassigned, and not
		// procs, so a round without workers allocates neither.
		wg := sim.NewWaitGroup(s.sched, "pagechan-workers")
		procs = wg
		for i := 0; i < Streams; i++ {
			wg.Add(1)
			s.sched.Go(fmt.Sprintf("pagechan-send-%d", i), func() {
				defer wg.Done()
				s.sender()
			})
		}
		if apply != nil {
			wg.Add(1)
			s.sched.Go("pagechan-apply", func() {
				defer wg.Done()
				s.applier()
			})
		}
	}

	var err error
	for off := 0; off < len(addrs) && err == nil; off += chunk {
		recs := dump(addrs[off:min(off+chunk, len(addrs))])
		st.PagesDumped += len(recs)
		ch := s.buildChunk(recs, &st)
		// Bounded pipeline window: throttle the dump to wire speed.
		for workers && !s.aborted && s.produced-s.finished >= 2*Streams {
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
		if st.Chunks++; st.Chunks == 1 {
			st.Fill = s.host.Now() - start
		}
		st.WireBytes += int64(ch.WireBytes())
		s.sendQ = append(s.sendQ, ch)
		refused := s.emit("send", ch.Seq)
		s.cond.Broadcast()
		if refused != nil {
			s.Abort()
			err = fmt.Errorf("pagechan: chunk %d of round %s refused: %w", st.Chunks, round, refused)
		}
	}
	s.closed = true
	s.cond.Broadcast()
	if workers {
		for !s.aborted && s.finished < s.produced {
			s.cond.Wait()
		}
		procs.Wait()
	} else {
		// The queues are closed, so each loop drains what is there and
		// returns instead of waiting for more.
		s.sender()
		if apply != nil {
			s.applier()
		}
	}
	if s.aborted && err == nil {
		err = ErrAborted
	}
	s.apply = nil
	st.Elapsed = s.host.Now() - start
	switch {
	case st.Chunks == 0:
		st.Fill = st.Elapsed
	case err == nil:
		st.Drain = s.host.Now() - s.lastRecv
	}
	s.wireBytes.Add(st.WireBytes)
	s.pagesSent.Add(int64(st.PagesSent))
	s.pagesElided.Add(int64(st.Elided()))
	s.chunksSent.Add(int64(st.Chunks))
	return st, err
}

// buildChunk turns one dumped batch into a chunk, filtered through the
// elision table when the session has one.
func (s *Session) buildChunk(recs []criu.PageRec, st *RoundStats) *Chunk {
	if s.dedup == nil {
		st.PagesSent += len(recs)
		return &Chunk{Pages: recs}
	}
	ch := &Chunk{}
	for _, r := range recs {
		h := hashPage(r.Data.Bytes())
		if prev, ok := s.dedup[r.Addr]; ok && prev == h {
			st.DupElided++
			continue
		}
		s.dedup[r.Addr] = h
		if mem.AllZero(r.Data.Bytes()) {
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
		s.emit("recv", ch.Seq)
		s.lastRecv = s.host.Now()
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
		s.emit("apply", ch.Seq)
		s.cond.Broadcast()
	}
}

// hashPage is the dedup table's content fingerprint, eight bytes a
// step, each word folded in by xxHash64's round. Unseeded, so a run is
// a function of its inputs; DESIGN.md §12 has the collision argument.
func hashPage(b []byte) uint64 {
	const p1, p2 = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F
	h := uint64(0x27D4EB2F165667C5)
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h+binary.LittleEndian.Uint64(b)*p2, 31) * p1
	}
	for _, c := range b { // a tail shorter than a word
		h = bits.RotateLeft64(h+uint64(c)*p2, 31) * p1
	}
	return h
}
