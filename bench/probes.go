package main

import (
	"fmt"
	"runtime"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/criu"
	"migrrdma/internal/experiments"
	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
	"migrrdma/internal/migmgr"
	"migrrdma/internal/oob"
	"migrrdma/internal/orchestrator"
	"migrrdma/internal/pagechan"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
	"migrrdma/internal/verbs"
)

// A probe is a small driver that times calls into one layer's public
// functions, from outside the layer. Probes are independent of the
// workload and of the seed where the layer draws no random numbers.

// cost is the host time and the heap allocations of one timed region.
type cost struct {
	d       time.Duration
	mallocs uint64
}

// timed collects garbage first, so that what earlier probes left behind
// is not collected on this region's time.
func timed(fn func()) cost {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return cost{d, b.Mallocs - a.Mallocs}
}

func (c cost) nsPer(n int) float64     { return float64(c.d.Nanoseconds()) / float64(n) }
func (c cost) allocsPer(n int) float64 { return float64(c.mallocs) / float64(n) }
func (c cost) perSecond(n int) float64 { return float64(n) / c.d.Seconds() }

// grow runs f(n), then once more at the n that should last a little
// over budget, and returns the last run and its n. With a zero budget
// the first, minimum-size run is the answer.
func grow(budget time.Duration, n int, f func(n int) cost) (cost, int) {
	for {
		c := f(n)
		if c.d >= budget {
			return c, n
		}
		scale := 1.2 * float64(budget) / float64(max(c.d, time.Microsecond))
		n = int(float64(n) * min(max(scale, 1.5), 1000))
	}
}

// probe measures one layer and returns its metrics by declared name.
type probe struct {
	layer string
	// units is the number of grow calls the probe makes, for sharing out
	// the time budget.
	units int
	run   func(unit time.Duration) map[string]float64
}

var probes = []probe{
	{"sim", 4, probeSim},
	{"fabric", 2, probeFabric},
	{"rnic", 2, probeRNIC},
	{"verbs", 1, probeVerbs},
	{"core", 5, probeCore},
	{"mem", 2, probeMem},
	{"criu", 1, probeCRIU},
	{"pagechan", 1, probePageChan},
	{"oob", 1, probeOOB},
	{"runc", 1, probeRunc},
	{"migmgr", 0, probeMigMgr},
	{"orchestrator", 2, probeOrchestrator},
}

// runProbes runs every probe inside about total of host time, with a
// span around each.
func runProbes(total time.Duration, tr *tracer) map[string]float64 {
	units := 0
	for _, p := range probes {
		units += p.units
	}
	out := map[string]float64{}
	for _, p := range probes {
		id := tr.begin("probe "+p.layer, -1)
		for k, v := range p.run(total / time.Duration(units)) {
			out[k] = v
		}
		tr.end(id)
	}
	return out
}

// --- sim ---------------------------------------------------------------------

func probeSim(unit time.Duration) map[string]float64 {
	// One proc dispatch round trip: resume the proc, it parks, control
	// returns to the loop.
	dispatch, nd := grow(unit, 20_000, func(n int) cost {
		s := sim.New(1)
		s.Go("spin", func() {
			for i := 0; i < n; i++ {
				s.Yield()
				// Nudge the clock so a large n does not read as a livelock.
				if i%1_000_000 == 999_999 {
					s.Sleep(time.Nanosecond)
				}
			}
		})
		return timed(s.Run)
	})
	// Park, timer fire, ready, dispatch.
	sleep, ns := grow(unit, 20_000, func(n int) cost {
		s := sim.New(1)
		s.Go("sleeper", func() {
			for i := 0; i < n; i++ {
				s.Sleep(time.Nanosecond)
			}
		})
		return timed(s.Run)
	})
	// A chain of timer callbacks with no proc: the fabric's delivery load.
	fire, nf := grow(unit, 20_000, func(n int) cost {
		s := sim.New(1)
		fired := 0
		var tick func()
		tick = func() {
			if fired++; fired < n {
				s.AfterFunc(time.Nanosecond, tick)
			}
		}
		s.AfterFunc(time.Nanosecond, tick)
		return timed(s.Run)
	})
	// The arm and cancel cycle of a retransmission timer.
	cancel, nc := grow(unit, 20_000, func(n int) cost {
		s := sim.New(1)
		s.Go("arm-cancel", func() {
			for i := 0; i < n; i++ {
				s.AfterFunc(time.Millisecond, func() {}).Cancel()
				if i%1024 == 1023 {
					s.Sleep(time.Microsecond)
				}
			}
		})
		return timed(s.Run)
	})
	return map[string]float64{
		"sim.dispatch_ns":         dispatch.nsPer(nd),
		"sim.allocs_per_dispatch": dispatch.allocsPer(nd),
		"sim.sleep_ns":            sleep.nsPer(ns),
		"sim.timer_fire_ns":       fire.nsPer(nf),
		"sim.timer_cancel_ns":     cancel.nsPer(nc),
	}
}

// --- fabric ------------------------------------------------------------------

// fabricSend sends n 1 KiB frames from a to b in bursts of 64 and
// returns the cost per frame, delivery callback included.
func fabricSend(topo fabric.Topology) func(n int) cost {
	return func(n int) cost {
		s := sim.New(1)
		net := fabric.New(s, fabric.Config{Topology: topo})
		received := 0
		net.Attach("a", func(fabric.Frame) {})
		net.Attach("b", func(fabric.Frame) { received++ })
		if !topo.Flat() {
			net.SetRack("b", 1)
		}
		data := make([]byte, 1024)
		f := fabric.Frame{Src: "a", Dst: "b", Port: "bench", Size: len(data) + 58, Data: data}
		const burst = 64
		ser := net.SerializationTime(f.Size)
		s.Go("sender", func() {
			for sent := 0; sent < n; {
				k := min(burst, n-sent)
				for i := 0; i < k; i++ {
					net.Send(f)
				}
				sent += k
				// Let the downlink drain before the next burst.
				s.Sleep(time.Duration(k)*ser + 10*time.Microsecond)
			}
		})
		c := timed(s.Run)
		if received != n {
			panic(fmt.Sprintf("fabric probe: delivered %d of %d frames", received, n))
		}
		return c
	}
}

func probeFabric(unit time.Duration) map[string]float64 {
	flat, nf := grow(unit, 10_000, fabricSend(fabric.Topology{}))
	// Two racks, so every frame pays the five serialization hops.
	xrack, nx := grow(unit, 10_000, fabricSend(fabric.Topology{Racks: 2, HostsPerRack: 1}))
	return map[string]float64{
		"fabric.send_flat_ns":     flat.nsPer(nf),
		"fabric.allocs_per_frame": flat.allocsPer(nf),
		"fabric.send_xrack_ns":    xrack.nsPer(nx),
	}
}

// --- rnic and verbs ----------------------------------------------------------

// poster and poller are the data-path calls rnic and verbs share, so
// one pump drives either layer.
type poster interface {
	PostSend(rnic.SendWR) error
	PostRecv(rnic.RecvWR) error
}

type poller interface {
	WaitNonEmpty()
	Poll(max int) []rnic.CQE
}

const (
	arena    = mem.Addr(0x100000)
	arenaLen = 1 << 20
)

// connectSteps takes a queue pair from reset to ready-to-send.
func connectSteps(node string, qpn uint32) []rnic.ModifyAttr {
	return []rnic.ModifyAttr{
		{State: rnic.StateInit},
		{State: rnic.StateRTR, RemoteNode: node, RemoteQPN: qpn},
		{State: rnic.StateRTS},
	}
}

// pump drives n SENDs of msgSize bytes from a to b with a window of 32
// and a receiver that keeps 64 receives posted.
func pump(s *sim.Scheduler, qpA, qpB poster, cqA, cqB poller, lkeyA, lkeyB uint32, msgSize, n int) cost {
	const depth = 32
	sgesA := []rnic.SGE{{Addr: arena, Len: uint32(msgSize), LKey: lkeyA}}
	sgesB := []rnic.SGE{{Addr: arena, Len: uint32(msgSize), LKey: lkeyB}}
	s.Go("server", func() {
		post := func(k int) {
			for i := 0; i < k; i++ {
				if err := qpB.PostRecv(rnic.RecvWR{WRID: 1, SGEs: sgesB}); err != nil {
					panic(err)
				}
			}
		}
		post(2 * depth)
		for got := 0; got < n; {
			cqB.WaitNonEmpty()
			k := len(cqB.Poll(64))
			got += k
			post(k)
		}
	})
	s.Go("client", func() {
		completed, posted, outstanding := 0, 0, 0
		for completed < n {
			for outstanding < depth && posted < n {
				if err := qpA.PostSend(rnic.SendWR{WRID: uint64(posted), Opcode: rnic.OpSend, SGEs: sgesA, Signaled: true}); err != nil {
					panic(err)
				}
				posted++
				outstanding++
			}
			cqA.WaitNonEmpty()
			for _, e := range cqA.Poll(64) {
				if e.Status != rnic.WCSuccess {
					panic("probe send failed: " + e.Status.String())
				}
				completed++
				outstanding--
			}
		}
	})
	return timed(s.Run)
}

// newDevice attaches a device to net and maps the arena its process
// sends from.
func newDevice(net *fabric.Network, name string) (*rnic.Device, *mem.AddressSpace) {
	as := mem.NewAddressSpace()
	if _, err := as.Map(arena, arenaLen, "arena"); err != nil {
		panic(err)
	}
	return rnic.NewDevice(net, fabric.NewMux(net, name), name, rnic.Config{}), as
}

// rnicEngine runs the pump on two bare devices.
func rnicEngine(msgSize int) func(n int) cost {
	return func(n int) cost {
		s := sim.New(42)
		net := fabric.New(s, fabric.Config{})
		devA, asA := newDevice(net, "hostA")
		devB, asB := newDevice(net, "hostB")
		var qpA, qpB *rnic.QP
		var cqA, cqB *rnic.CQ
		var mrA, mrB *rnic.MR
		s.Go("setup", func() {
			pdA, pdB := devA.AllocPD(), devB.AllocPD()
			cqA, cqB = devA.CreateCQ(256, nil), devB.CreateCQ(256, nil)
			caps := rnic.QPCaps{MaxSend: 128, MaxRecv: 128}
			qpA = devA.CreateQP(pdA, rnic.RC, cqA, cqA, nil, caps)
			qpB = devB.CreateQP(pdB, rnic.RC, cqB, cqB, nil, caps)
			for _, a := range connectSteps("hostB", qpB.QPN) {
				must(qpA.Modify(a))
			}
			for _, a := range connectSteps("hostA", qpA.QPN) {
				must(qpB.Modify(a))
			}
			var err error
			mrA, err = devA.RegMR(pdA, asA, arena, arenaLen, rnic.AccessLocalWrite)
			must(err)
			mrB, err = devB.RegMR(pdB, asB, arena, arenaLen, rnic.AccessLocalWrite)
			must(err)
		})
		s.Run()
		return pump(s, qpA, qpB, cqA, cqB, mrA.LKey, mrB.LKey, msgSize, n)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func probeRNIC(unit time.Duration) map[string]float64 {
	mtu := rnic.DefaultConfig().MTU
	pkts := func(msgSize, n int) int { return n * ((msgSize+mtu-1)/mtu + 1) } // fragments and one ACK
	c2k, n2k := grow(unit, 2_000, rnicEngine(2048))
	c16k, n16k := grow(unit, 1_000, rnicEngine(16384))
	return map[string]float64{
		"rnic.engine_pkts_per_s_2k":  c2k.perSecond(pkts(2048, n2k)),
		"rnic.engine_pkts_per_s_16k": c16k.perSecond(pkts(16384, n16k)),
		"rnic.allocs_per_msg":        c2k.allocsPer(n2k),
	}
}

func probeVerbs(unit time.Duration) map[string]float64 {
	c, n := grow(unit, 2_000, func(n int) cost {
		s := sim.New(42)
		net := fabric.New(s, fabric.Config{})
		ctxA, ctxB := verbs.OpenDevice(newDevice(net, "hostA")), verbs.OpenDevice(newDevice(net, "hostB"))
		var qpA, qpB *verbs.QP
		var cqA, cqB *verbs.CQ
		var mrA, mrB *verbs.MR
		s.Go("setup", func() {
			pdA, pdB := ctxA.AllocPD(), ctxB.AllocPD()
			cqA, cqB = ctxA.CreateCQ(256, nil), ctxB.CreateCQ(256, nil)
			caps := rnic.QPCaps{MaxSend: 128, MaxRecv: 128}
			qpA = ctxA.CreateQP(pdA, rnic.RC, cqA, cqA, nil, caps)
			qpB = ctxB.CreateQP(pdB, rnic.RC, cqB, cqB, nil, caps)
			for _, a := range connectSteps("hostB", qpB.QPN()) {
				must(qpA.Modify(a))
			}
			for _, a := range connectSteps("hostA", qpA.QPN()) {
				must(qpB.Modify(a))
			}
			var err error
			mrA, err = ctxA.RegMR(pdA, arena, arenaLen, rnic.AccessLocalWrite)
			must(err)
			mrB, err = ctxB.RegMR(pdB, arena, arenaLen, rnic.AccessLocalWrite)
			must(err)
		})
		s.Run()
		return pump(s, qpA, qpB, cqA, cqB, mrA.LKey(), mrB.LKey(), 2048, n)
	})
	return map[string]float64{
		"verbs.post_poll_ns":  c.nsPer(n),
		"verbs.allocs_per_op": c.allocsPer(n),
	}
}

// --- core --------------------------------------------------------------------

// probeCore times the guest library's data-path translations, the paths
// Table 4 prices.
func probeCore(unit time.Duration) map[string]float64 {
	p := core.NewTranslationProbe()
	loop := func(f func()) float64 {
		c, n := grow(unit, 100_000, func(n int) cost {
			return timed(func() {
				for i := 0; i < n; i++ {
					f()
				}
			})
		})
		return c.nsPer(n)
	}
	return map[string]float64{
		"core.translate_send_ns":  loop(p.TranslateSend),
		"core.translate_write_ns": loop(p.TranslateWrite),
		"core.translate_read_ns":  loop(p.TranslateRead),
		"core.translate_recv_ns":  loop(p.TranslateRecv),
		"core.translate_cqe_ns":   loop(p.TranslateCQE),
	}
}

// --- mem ---------------------------------------------------------------------

const memProbePages = 1024

func probeMem(unit time.Duration) map[string]float64 {
	as := mem.NewAddressSpace()
	if _, err := as.Map(arena, memProbePages*mem.PageSize, "probe"); err != nil {
		panic(err)
	}
	buf := make([]byte, mem.PageSize)
	writeAll := func() {
		for i := 0; i < memProbePages; i++ {
			must(as.Write(arena+mem.Addr(i*mem.PageSize), buf))
		}
	}
	// n counts sweeps over the region; the cost is per page.
	write, nw := grow(unit, 4, func(n int) cost {
		return timed(func() {
			for i := 0; i < n; i++ {
				writeAll()
			}
		})
	})
	// One pre-copy round of dirty tracking: collect, then reset.
	scan, ns := grow(unit, 4, func(n int) cost {
		var d time.Duration
		for i := 0; i < n; i++ {
			writeAll()
			t0 := time.Now()
			if got := len(as.DirtyPages()); got != memProbePages {
				panic(fmt.Sprintf("mem probe: %d dirty pages, want %d", got, memProbePages))
			}
			as.ClearDirty()
			d += time.Since(t0)
		}
		return cost{d: d}
	})
	return map[string]float64{
		"mem.write_ns_per_page":      write.nsPer(nw * memProbePages),
		"mem.dirty_scan_ns_per_page": scan.nsPer(ns * memProbePages),
	}
}

// --- criu and pagechan -------------------------------------------------------

// populated returns a process on cl's scheduler with n pages of
// distinct non-zero content, so that neither zero-page nor
// duplicate-content elision applies.
func populated(cl *cluster.Cluster, n int) *task.Process {
	p := task.New(cl.Sched, "probe")
	if _, err := p.AS.Map(arena, uint64(n)*mem.PageSize, "state"); err != nil {
		panic(err)
	}
	buf := make([]byte, mem.PageSize)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i + j + 1)
		}
		must(p.AS.Write(arena+mem.Addr(i*mem.PageSize), buf))
	}
	return p
}

// probeCRIU dumps n pages with the checkpoint tool of a cluster host
// and applies the image to a fresh restore, timing each on the host
// clock.
func probeCRIU(unit time.Duration) map[string]float64 {
	var apply cost
	dump, n := grow(unit, 2_000, func(n int) cost {
		cl := cluster.New(cluster.FastCheckpointTestbed(1), "src", "dst")
		p := populated(cl, n)
		var dump cost
		cl.Sched.Go("probe", func() {
			var img *criu.Image
			dump = timed(func() { img = cl.Host("src").CRIU.Dump(p, true) })
			if len(img.Pages) != n {
				panic(fmt.Sprintf("criu probe: dumped %d pages, want %d", len(img.Pages), n))
			}
			r := cl.Host("dst").CRIU.BeginRestore(p)
			apply = timed(func() { must(r.PartialRestore(img)) })
		})
		cl.Sched.Run()
		return dump
	})
	return map[string]float64{
		"criu.dump_pages_per_host_s":  dump.perSecond(n),
		"criu.apply_pages_per_host_s": apply.perSecond(n),
	}
}

// probePageChan streams n pages from src to dst through a page channel
// session, dump and apply included, and reports pages per host second
// and the simulated goodput.
func probePageChan(unit time.Duration) map[string]float64 {
	var stats pagechan.RoundStats
	c, n := grow(unit, 2_000, func(n int) cost {
		cl := cluster.New(cluster.FastCheckpointTestbed(1), "src", "dst")
		p := populated(cl, n)
		src, dst := cl.Host("src"), cl.Host("dst")
		var c cost
		cl.Sched.Go("probe", func() {
			sess := pagechan.NewSession(cl.Sched, src, "dst", pagechan.Config{})
			c = timed(func() {
				img, addrs := src.CRIU.BeginDump(p, true)
				r := dst.CRIU.BeginRestore(p)
				must(r.PartialRestore(img))
				var err error
				stats, err = sess.Stream("probe", addrs,
					func(a []mem.Addr) []criu.PageRec { return src.CRIU.DumpPages(p, a) },
					func(ch *pagechan.Chunk) { r.ApplyChunk(img, ch.Pages, ch.Zeros) })
				must(err)
			})
			if stats.PagesSent != n {
				panic(fmt.Sprintf("pagechan probe: sent %d pages, want %d", stats.PagesSent, n))
			}
		})
		cl.Sched.Run()
		return c
	})
	return map[string]float64{
		"pagechan.stream_pages_per_host_s": c.perSecond(n),
		"pagechan.stream_sim_mb_per_s":     float64(stats.WireBytes) / 1e6 / stats.Elapsed.Seconds(),
	}
}

// --- oob ---------------------------------------------------------------------

func probeOOB(unit time.Duration) map[string]float64 {
	var simPerCall time.Duration
	c, n := grow(unit, 2_000, func(n int) cost {
		cl := cluster.New(cluster.FastCheckpointTestbed(1), "a", "b")
		cl.Host("b").Hub.Endpoint("srv").Handle("ping", func(m oob.Msg) []byte { return m.Body })
		cli := cl.Host("a").Hub.Endpoint("cli")
		body := make([]byte, 64)
		cl.Sched.Go("caller", func() {
			start := cl.Sched.Now()
			for i := 0; i < n; i++ {
				cli.Call("b", "srv", "ping", body)
			}
			simPerCall = (cl.Sched.Now() - start) / time.Duration(n)
		})
		return timed(cl.Sched.Run)
	})
	return map[string]float64{
		"oob.call_ns":     c.nsPer(n),
		"oob.call_sim_us": us(simPerCall),
	}
}

// --- runc and migmgr ---------------------------------------------------------

// idleOpts is a one-QP perftest pair that posts a single message and
// then sleeps past the end of the probe: a container with RDMA state to
// migrate and no traffic.
var idleOpts = perftest.Options{
	Verb: rnic.OpSend, MsgSize: 64, QueueDepth: 1, NumQPs: 1, PostGap: time.Hour,
}

// probeRunc migrates one idle container: the control path with no data
// plane under it. The cost is per migration, rig build included.
func probeRunc(unit time.Duration) map[string]float64 {
	c, n := grow(unit, 2, func(n int) cost {
		return timed(func() {
			for i := 0; i < n; i++ {
				r := experiments.NewRigCfg(cluster.FastCheckpointTestbed(1), "src", "dst", "partner")
				pair := r.StartPair("src", "partner", idleOpts)
				var err error
				done := false
				r.CL.Sched.Go("driver", func() {
					pair.Client.WaitReady()
					r.CL.Sched.Sleep(time.Millisecond)
					_, err = r.Migrate(pair.ClientCont, "src", "dst", runc.DefaultMigrateOptions())
					done = true
					r.CL.Sched.Stop()
				})
				r.CL.Sched.RunFor(time.Minute)
				if err != nil || !done {
					panic(fmt.Sprintf("runc probe: migration done=%v err=%v", done, err))
				}
			}
		})
	})
	return map[string]float64{"runc.idle_migrate_host_ms": c.nsPer(n) / 1e6}
}

// probeMigMgr submits eight idle containers at once to a manager that
// admits two at a time and reports the mean admission wait, which is
// virtual time and repeats exactly.
func probeMigMgr(time.Duration) map[string]float64 {
	const containers, admit = 8, 2
	r := experiments.NewRigCfg(cluster.FastCheckpointTestbed(1), "src", "dst", "partner")
	var pairs []*experiments.Pair
	for i := 0; i < containers; i++ {
		pairs = append(pairs, r.StartPairNamed("src", "partner", fmt.Sprintf("cli%d", i), fmt.Sprintf("srv%d", i), idleOpts))
	}
	mgr := migmgr.New(r.CL, r.Daemons, admit)
	r.CL.Sched.Go("driver", func() {
		for _, p := range pairs {
			p.Client.WaitReady()
		}
		r.CL.Sched.Sleep(time.Millisecond)
		for _, p := range pairs {
			_, err := mgr.Submit(migmgr.Spec{C: p.ClientCont, Dst: "dst", Opts: runc.DefaultMigrateOptions()})
			must(err)
		}
		mgr.WaitAll()
		r.CL.Sched.Stop()
	})
	r.CL.Sched.RunFor(time.Minute)
	var wait time.Duration
	for _, j := range mgr.Jobs() {
		if j.State() != migmgr.Done {
			panic(fmt.Sprintf("migmgr probe: job %s is %v: %v", j.ID, j.State(), j.Err))
		}
		wait += j.QueueWait()
	}
	return map[string]float64{"migmgr.queue_wait_ms": ms(wait / containers)}
}

// --- orchestrator ------------------------------------------------------------

func probeOrchestrator(unit time.Duration) map[string]float64 {
	place := func(hosts int) float64 {
		cands := make([]orchestrator.Candidate, hosts)
		for i := range cands {
			cands[i] = orchestrator.Candidate{Host: fmt.Sprintf("r%03dh%d", i/8, i%8), Rack: i / 8, Load: i % 3}
		}
		src := orchestrator.Candidate{Host: "src", Rack: hosts / 16}
		policy := orchestrator.LeastLoaded{PreferSameRack: true}
		c, n := grow(unit, 1_000, func(n int) cost {
			return timed(func() {
				for i := 0; i < n; i++ {
					if policy.Place(src, cands) == "" {
						panic("orchestrator probe: no placement")
					}
				}
			})
		})
		return c.nsPer(n)
	}
	return map[string]float64{
		"orchestrator.place_ns_128":  place(128),
		"orchestrator.place_ns_1024": place(1024),
	}
}
