package pagechan

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"migrrdma/internal/criu"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// fakeHost satisfies criu.HostServices with a deterministic serial
// wire: 1 ns per byte, bytes accounted. Concurrent TransferTo calls
// interleave cooperatively (one proc at a time), which is enough to
// exercise the pipeline's queueing without a full cluster.
type fakeHost struct {
	sched *sim.Scheduler
	wire  int64
	sends int
}

func (h *fakeHost) Sleep(d time.Duration) { h.sched.Sleep(d) }
func (h *fakeHost) Now() time.Duration    { return h.sched.Now() }
func (h *fakeHost) Node() string          { return "src" }
func (h *fakeHost) TransferTo(peer string, size int) {
	h.wire += int64(size)
	h.sends++
	h.sched.Sleep(time.Duration(size) * time.Nanosecond)
}

// page fabricates page content: constant c across the page, or zeros.
func page(c byte) []byte {
	buf := make([]byte, mem.PageSize)
	for i := range buf {
		buf[i] = c
	}
	return buf
}

// run drives fn as a managed proc to completion.
func run(t *testing.T, fn func(s *sim.Scheduler, h *fakeHost)) {
	t.Helper()
	s := sim.New(1)
	h := &fakeHost{sched: s}
	done := false
	s.Go("test", func() {
		fn(s, h)
		done = true
	})
	s.RunFor(time.Hour)
	if !done {
		t.Fatal("test proc did not finish")
	}
}

// dumper returns a dump callback over a fixed content table, charging
// perPage of simulated dump time per page read.
func dumper(h *fakeHost, content map[mem.Addr][]byte, perPage time.Duration) func([]mem.Addr) []criu.PageRec {
	return func(addrs []mem.Addr) []criu.PageRec {
		recs := make([]criu.PageRec, 0, len(addrs))
		for _, a := range addrs {
			recs = append(recs, criu.PageRec{Addr: a, Data: mem.FrameOf(content[a])})
		}
		h.Sleep(time.Duration(len(addrs)) * perPage)
		return recs
	}
}

func addrs(n int) []mem.Addr {
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = mem.Addr(0x1000 * (i + 1))
	}
	return out
}

func TestStreamShipsEveryPage(t *testing.T) {
	run(t, func(s *sim.Scheduler, h *fakeHost) {
		const n = 50
		as := addrs(n)
		content := make(map[mem.Addr][]byte, n)
		for i, a := range as {
			content[a] = page(byte(i + 1))
		}
		got := make(map[mem.Addr]byte)
		sess := NewSession(s, h, "dst", Config{ChunkPages: 8})
		st, err := sess.Stream("final", as, dumper(h, content, time.Microsecond),
			func(ch *Chunk) {
				for _, pg := range ch.Pages {
					got[pg.Addr] = pg.Data.Bytes()[0]
				}
			})
		if err != nil {
			t.Errorf("stream: %v", err)
		}
		if st.PagesDumped != n || st.PagesSent != n || st.Elided() != 0 {
			t.Errorf("stats = %+v, want %d dumped+sent, 0 elided", st, n)
		}
		if wantChunks := (n + 7) / 8; st.Chunks != wantChunks {
			t.Errorf("chunks = %d, want %d", st.Chunks, wantChunks)
		}
		if len(got) != n {
			t.Errorf("applied %d pages, want %d", len(got), n)
		}
		for i, a := range as {
			if got[a] != byte(i+1) {
				t.Errorf("page %#x applied %d, want %d", uint64(a), got[a], i+1)
			}
		}
		if h.wire != st.WireBytes {
			t.Errorf("wire bytes %d vs stats %d", h.wire, st.WireBytes)
		}
		if sess.Staged() != 0 {
			t.Errorf("staged = %d after a clean round", sess.Staged())
		}
	})
}

func TestZeroPageElision(t *testing.T) {
	run(t, func(s *sim.Scheduler, h *fakeHost) {
		as := addrs(16)
		content := make(map[mem.Addr][]byte)
		for i, a := range as {
			if i < 12 {
				content[a] = page(0) // explicit all-zero pages
			} else {
				content[a] = page(7)
			}
		}
		applied := 0
		sess := NewSession(s, h, "dst", Config{ChunkPages: 16})
		st, err := sess.Stream("final", as, dumper(h, content, 0),
			func(ch *Chunk) { applied += len(ch.Pages) + len(ch.Zeros) })
		if err != nil {
			t.Errorf("stream: %v", err)
		}
		if st.ZeroPages != 12 || st.PagesSent != 4 {
			t.Errorf("zero=%d sent=%d, want 12/4", st.ZeroPages, st.PagesSent)
		}
		if applied != 16 {
			t.Errorf("applied %d pages, want 16 (zeros must still be applied)", applied)
		}
		// 12 zero pages ship as headers: the round must be far smaller
		// than 16 full pages.
		full := int64(16 * (mem.PageSize + pageHeader))
		if st.WireBytes >= full {
			t.Errorf("wire %d not reduced vs full %d", st.WireBytes, full)
		}
	})
}

func TestDuplicateElisionAcrossRounds(t *testing.T) {
	run(t, func(s *sim.Scheduler, h *fakeHost) {
		as := addrs(20)
		content := make(map[mem.Addr][]byte)
		for i, a := range as {
			content[a] = page(byte(i + 1))
		}
		sess := NewSession(s, h, "dst", Config{ChunkPages: 8})
		apply := func(*Chunk) {}
		if _, err := sess.Stream("predump", as, dumper(h, content, 0), apply); err != nil {
			t.Errorf("round 1: %v", err)
		}
		// Round 2 re-dumps the same pages (dirty-bit false positives):
		// every resend must be elided and nothing hits the wire.
		wireBefore := h.wire
		st, err := sess.Stream("precopy", as, dumper(h, content, 0), apply)
		if err != nil {
			t.Errorf("round 2: %v", err)
		}
		if st.DupElided != 20 || st.PagesSent != 0 || st.Chunks != 0 {
			t.Errorf("round 2 stats %+v, want all 20 dup-elided, no chunks", st)
		}
		if h.wire != wireBefore {
			t.Errorf("round 2 put %d bytes on the wire, want 0", h.wire-wireBefore)
		}
		// Round 3: half the pages genuinely change; only those ship.
		for i, a := range as {
			if i%2 == 0 {
				content[a] = page(byte(i + 100))
			}
		}
		st, err = sess.Stream("final", as, dumper(h, content, 0), apply)
		if err != nil {
			t.Errorf("round 3: %v", err)
		}
		if st.PagesSent != 10 || st.DupElided != 10 {
			t.Errorf("round 3 sent=%d elided=%d, want 10/10", st.PagesSent, st.DupElided)
		}
	})
}

// TestPipelineOverlaps asserts the point of the channel: with dump,
// wire, and apply each costing real time, the round finishes in less
// than their serial sum.
func TestPipelineOverlaps(t *testing.T) {
	run(t, func(s *sim.Scheduler, h *fakeHost) {
		const n = 64
		as := addrs(n)
		content := make(map[mem.Addr][]byte)
		for i, a := range as {
			content[a] = page(byte(i + 1))
		}
		perDump := 10 * time.Microsecond
		perApply := 10 * time.Microsecond
		sess := NewSession(s, h, "dst", Config{ChunkPages: 8})
		st, err := sess.Stream("final", as, dumper(h, content, perDump),
			func(ch *Chunk) { h.Sleep(time.Duration(len(ch.Pages)) * perApply) })
		if err != nil {
			t.Errorf("stream: %v", err)
		}
		dump := time.Duration(n) * perDump
		wire := time.Duration(st.WireBytes) * time.Nanosecond
		apply := time.Duration(n) * perApply
		serial := dump + wire + apply
		if st.Elapsed >= serial {
			t.Errorf("elapsed %v did not beat serial %v (dump %v + wire %v + apply %v)",
				st.Elapsed, serial, dump, wire, apply)
		}
	})
}

func TestMidChunkAbortLeavesNothingStaged(t *testing.T) {
	run(t, func(s *sim.Scheduler, h *fakeHost) {
		as := addrs(40)
		content := make(map[mem.Addr][]byte)
		for i, a := range as {
			content[a] = page(byte(i + 1))
		}
		var log string
		sess := NewSession(s, h, "dst", Config{
			ChunkPages: 4, Metrics: logEvents(s, &log, 3),
		})
		applied := 0
		st, err := sess.Stream("precopy", as, dumper(h, content, time.Microsecond),
			func(*Chunk) { applied++ })
		if !errors.Is(err, errRefused) {
			t.Errorf("err = %v, want the listener's refusal", err)
		}
		if st.Chunks != 3 {
			t.Errorf("aborted after %d chunks, want 3", st.Chunks)
		}
		if !sess.Aborted() {
			t.Error("session not aborted after injected fault")
		}
		if sess.Staged() != 0 {
			t.Errorf("staged = %d after abort, want 0", sess.Staged())
		}
		if applied > st.Chunks {
			t.Errorf("applied %d chunks out of %d sent", applied, st.Chunks)
		}
		// The channel is dead: further rounds refuse immediately.
		if _, err := sess.Stream("final", as, dumper(h, content, 0), nil); !errors.Is(err, ErrAborted) {
			t.Errorf("post-abort stream err = %v, want ErrAborted", err)
		}
	})
}

// errRefused is a test listener's answer to the chunk send it refuses.
var errRefused = errors.New("send refused")

// logEvents returns a registry whose listener appends every pchan event
// to *log as "time:event:seq|" and refuses the refuse-th chunk send
// (none when refuse is 0).
func logEvents(s *sim.Scheduler, log *string, refuse int) *metrics.Registry {
	reg := metrics.New(s.Now)
	sends := 0
	reg.Listen(func(e metrics.Event) error {
		*log += fmt.Sprintf("%d:%s:%d|", e.T, e.Note, e.Seq)
		if e.Note == "send" {
			if sends++; sends == refuse {
				return errRefused
			}
		}
		return nil
	})
	return reg
}

// TestStreamDeterministic replays the same round twice in fresh
// simulations and requires identical event sequences and timing.
func TestStreamDeterministic(t *testing.T) {
	trace := func() (string, time.Duration) {
		var log string
		var elapsed time.Duration
		s := sim.New(1)
		h := &fakeHost{sched: s}
		s.Go("test", func() {
			as := addrs(30)
			content := make(map[mem.Addr][]byte)
			for i, a := range as {
				content[a] = page(byte(i%5 + 1))
			}
			sess := NewSession(s, h, "dst", Config{
				ChunkPages: 4, Metrics: logEvents(s, &log, 0),
			})
			st, err := sess.Stream("final", as, dumper(h, content, time.Microsecond),
				func(*Chunk) { h.Sleep(2 * time.Microsecond) })
			if err != nil {
				log += "ERR"
			}
			elapsed = st.Elapsed
		})
		s.RunFor(time.Hour)
		return log, elapsed
	}
	l1, e1 := trace()
	l2, e2 := trace()
	if l1 != l2 || e1 != e2 {
		t.Fatalf("nondeterministic stream:\n%s (%v)\nvs\n%s (%v)", l1, e1, l2, e2)
	}
	if l1 == "" {
		t.Fatal("the listener saw no events — the determinism check is vacuous")
	}
}

// TestOneChunkRoundInlineMatchesWorkers is the differential behind
// Stream's choice: a round of one chunk run on the calling proc and the
// same round handed to sender and applier procs yield the same event
// sequence with the same timestamps, the same RoundStats and the same
// virtual end time — clean, with the listener refusing the chunk's
// send, and with an Abort landing while the chunk is on the wire.
func TestOneChunkRoundInlineMatchesWorkers(t *testing.T) {
	type outcome struct {
		log  string
		st   RoundStats
		err  string
		end  time.Duration
		left int
	}
	const n = 24
	for _, tc := range []struct {
		name    string
		refuse  int
		abortAt time.Duration // 0: never
		wantErr error
	}{
		{"clean", 0, 0, nil},
		{"fail-at-chunk-1", 1, 0, errRefused},
		// Dump ends at 24 µs; the chunk is on the wire for ~98 µs after.
		{"abort-mid-transfer", 0, 60 * time.Microsecond, ErrAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			round := func(workers bool) (o outcome) {
				run(t, func(s *sim.Scheduler, h *fakeHost) {
					as := addrs(n)
					content := make(map[mem.Addr][]byte, n)
					for i, a := range as {
						content[a] = page(byte(i%3 + 1))
					}
					sess := NewSession(s, h, "dst", Config{Metrics: logEvents(s, &o.log, tc.refuse)})
					if tc.abortAt > 0 {
						s.AfterFunc(tc.abortAt, sess.Abort)
					}
					var err error
					o.st, err = sess.stream("final", as, dumper(h, content, time.Microsecond),
						func(ch *Chunk) { h.Sleep(time.Duration(len(ch.Pages)) * 2 * time.Microsecond) },
						DefaultChunkPages, workers)
					if !errors.Is(err, tc.wantErr) {
						t.Errorf("workers=%v: err = %v, want %v", workers, err, tc.wantErr)
					}
					o.err, o.end, o.left = fmt.Sprint(err), s.Now(), sess.Staged()
				})
				return o
			}
			inline, workers := round(false), round(true)
			if inline != workers {
				t.Errorf("inline and worker rounds differ:\n inline  %+v\n workers %+v", inline, workers)
			}
			if inline.log == "" || inline.left != 0 {
				t.Errorf("vacuous or leaky round: %+v", inline)
			}
		})
	}
}

// TestOneChunkRoundSpawnsNoProc: what Stream itself picks. A round that
// fits a chunk — every monolithic round, whatever its size — starts no
// proc; only a round of several chunks gets its workers.
func TestOneChunkRoundSpawnsNoProc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		pages  int
		spawns int64
		chunks int
	}{
		{"monolithic-large", Config{Monolithic: true}, 5 * DefaultChunkPages, 0, 1},
		{"pipelined-small", Config{}, DefaultChunkPages, 0, 1},
		{"pipelined-large", Config{}, DefaultChunkPages + 1, Streams + 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(s *sim.Scheduler, h *fakeHost) {
				as := addrs(tc.pages)
				content := make(map[mem.Addr][]byte, len(as))
				for i, a := range as {
					content[a] = page(byte(i%7 + 1))
				}
				applied := 0
				sess := NewSession(s, h, "dst", tc.cfg)
				before := s.Spawned()
				st, err := sess.Stream("final", as, dumper(h, content, 0),
					func(ch *Chunk) { applied += len(ch.Pages) })
				if err != nil {
					t.Fatalf("stream: %v", err)
				}
				if got := s.Spawned() - before; got != tc.spawns {
					t.Errorf("round spawned %d procs, want %d", got, tc.spawns)
				}
				if st.Chunks != tc.chunks || st.PagesSent != tc.pages || applied != tc.pages || st.Elided() != 0 {
					t.Errorf("chunks=%d sent=%d applied=%d elided=%d, want %d/%d/%d/0",
						st.Chunks, st.PagesSent, applied, st.Elided(), tc.chunks, tc.pages, tc.pages)
				}
			})
		})
	}
}

// TestMonolithicElidesNothing: the preset ships zero pages and
// unchanged pages in full, round after round.
func TestMonolithicElidesNothing(t *testing.T) {
	run(t, func(s *sim.Scheduler, h *fakeHost) {
		as := addrs(10)
		content := make(map[mem.Addr][]byte)
		for i, a := range as {
			content[a] = page(byte(i % 2)) // half of them all-zero
		}
		sess := NewSession(s, h, "dst", Config{Monolithic: true})
		for _, round := range []string{"predump", "precopy"} {
			st, err := sess.Stream(round, as, dumper(h, content, 0), func(*Chunk) {})
			if err != nil {
				t.Fatalf("%s: %v", round, err)
			}
			if st.PagesSent != 10 || st.Elided() != 0 || st.WireBytes != int64(chunkHeader+10*(mem.PageSize+pageHeader)) {
				t.Errorf("%s: %+v, want 10 full pages in one chunk", round, st)
			}
		}
	})
}
