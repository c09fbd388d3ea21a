// Package cluster assembles the simulated testbed: hosts that each
// carry a fabric port, an RNIC, an out-of-band control hub and a
// checkpoint/restore tool — the paper's six-server, single-switch,
// 100 Gbps environment (§5.1).
package cluster

import (
	"encoding/binary"
	"sort"
	"time"

	"migrrdma/internal/criu"
	"migrrdma/internal/fabric"
	"migrrdma/internal/metrics"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
)

// Host is one server.
type Host struct {
	Name string
	// Rack is the host's rack under a two-tier fabric topology (0 on a
	// flat fabric).
	Rack    int
	Sched   *sim.Scheduler
	Net     *fabric.Network
	Mux     *fabric.Mux
	Dev     *rnic.Device
	Hub     *oob.Hub
	CRIU    *criu.Tool
	Metrics *metrics.Registry

	xferSeq  uint64
	xferWait map[uint64]*sim.Cond
}

// Cluster is the whole testbed.
type Cluster struct {
	Sched *sim.Scheduler
	Net   *fabric.Network
	Hosts map[string]*Host
	// Metrics is the cluster-wide deterministic registry; every component
	// (fabric ports, RNICs, migration daemons) registers into it so one
	// snapshot captures the whole testbed.
	Metrics *metrics.Registry
}

// Config selects component parameters for every host. A field left zero
// takes its package's default; with the constants in rnic, criu and
// fabric they mirror the paper's environment (§5.1): six servers with
// ConnectX-5 100 Gbps RNICs behind one Arista switch, container
// migration via CRIU + runc. The load-bearing constants and the
// observations they are calibrated against:
//
//   - fabric: LinkRate 100 Gbps per port, ~1 µs propagation — §5.1.
//   - rnic: QP create→RTS ≈ 0.9 ms (createQPLat … modifyRTSLat;
//     "setting up an RDMA connection takes several milliseconds", §2.2
//     via [53]); sparse physical QPNs/keys (why §3.3 introduces dense
//     virtual values).
//   - criu: dump cost superlinear in the number of mappings
//     ("inefficient CRIU implementation for large and complicated
//     memory structures", §5.2); fixed dump+thaw costs
//     (criu.DefaultConfig) sized so a 16-QP container's blackout lands
//     in the paper's ≈150 ms band (Fig. 5).
type Config struct {
	Fabric fabric.Config
	NIC    rnic.Config
	CRIU   criu.Config
	Seed   int64
}

// New builds a cluster with the named hosts.
func New(cfg Config, names ...string) *Cluster {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := sim.New(seed)
	reg := metrics.New(s.Now)
	fabCfg := cfg.Fabric
	fabCfg.Metrics = reg
	nicCfg := cfg.NIC
	nicCfg.Metrics = reg
	net := fabric.New(s, fabCfg)
	c := &Cluster{Sched: s, Net: net, Hosts: make(map[string]*Host), Metrics: reg}
	for i, name := range names {
		mux := fabric.NewMux(net, name)
		h := &Host{
			Name:     name,
			Rack:     rackOf(fabCfg.Topology, i),
			Sched:    s,
			Net:      net,
			Mux:      mux,
			Dev:      rnic.NewDevice(net, mux, name, nicCfg),
			Hub:      oob.NewHub(net, mux, name),
			Metrics:  reg,
			xferWait: make(map[uint64]*sim.Cond),
		}
		h.CRIU = criu.New(h, cfg.CRIU)
		mux.Register(portXfer, h.onXfer)
		mux.Register(portXferAck, h.onXferAck)
		net.SetRack(name, h.Rack)
		c.Hosts[name] = h
	}
	return c
}

// rackOf places host i in its topology rack: hosts are assigned to
// racks in declaration-order blocks of HostsPerRack. Flat topologies
// put everything in rack 0.
func rackOf(t fabric.Topology, i int) int {
	if t.Flat() {
		return 0
	}
	if t.HostsPerRack <= 0 {
		panic("cluster: two-tier topology needs HostsPerRack > 0")
	}
	r := i / t.HostsPerRack
	if r >= t.Racks {
		panic("cluster: more hosts than Racks×HostsPerRack")
	}
	return r
}

// Close ends the testbed's simulation (sim.Scheduler.Close): every
// proc still parked is unwound, so the cluster and all that ran on it
// become garbage once the caller drops them. Nothing can be run on the
// cluster afterwards; its state and metrics stay readable.
func (c *Cluster) Close() { c.Sched.Close() }

// Host returns the named host, panicking if absent.
func (c *Cluster) Host(name string) *Host {
	h, ok := c.Hosts[name]
	if !ok {
		panic("cluster: unknown host " + name)
	}
	return h
}

// Names returns the host names in sorted order. Deterministic consumers
// (trace hashing, drain expansion) must iterate hosts through it
// rather than ranging over the Hosts map.
func (c *Cluster) Names() []string {
	names := make([]string, 0, len(c.Hosts))
	for n := range c.Hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- criu.HostServices -------------------------------------------------------

// Sleep advances virtual time for the calling proc.
func (h *Host) Sleep(d time.Duration) { h.Sched.Sleep(d) }

// Now returns the virtual time.
func (h *Host) Now() time.Duration { return h.Sched.Now() }

// Node returns the host's fabric node name.
func (h *Host) Node() string { return h.Name }

const (
	portXfer    = "xfer"
	portXferAck = "xfer-ack"
	xferChunk   = 64 << 10
	// xferOverhead approximates per-chunk TCP segmentation overhead.
	xferOverhead = 1060 // ~16 segments × 66 B headers per 64 KiB chunk
)

// TransferTo streams size bytes to the peer at link pace (the TCP bulk
// transfer CRIU uses for images; the paper's MigrRDMA transfers state
// over TCP, §7). It blocks until the peer has received the final byte,
// and contends with RDMA traffic for the same links — the source of the
// pre-copy brownout in Fig. 5.
func (h *Host) TransferTo(peer string, size int) {
	if size <= 0 {
		return
	}
	h.xferSeq++
	id := h.xferSeq
	done := sim.NewCond(h.Sched, "xfer-done")
	h.xferWait[id] = done
	sent := 0
	for sent < size {
		n := size - sent
		if n > xferChunk {
			n = xferChunk
		}
		final := sent+n >= size
		var hdr [17]byte
		binary.BigEndian.PutUint64(hdr[:], id)
		if final {
			hdr[8] = 1
		}
		wire := n + xferOverhead*n/xferChunk
		h.Net.Send(fabric.Frame{
			Src: h.Name, Dst: peer, Port: portXfer,
			Size: wire, Data: hdr[:],
		})
		// Self-clock at link rate; concurrent traffic shows up as
		// queueing delay on top.
		h.Sched.Sleep(h.Net.SerializationTime(wire))
		sent += n
	}
	done.Wait()
	delete(h.xferWait, id)
}

// onXfer runs on the receiving host: the final chunk triggers an ack.
func (h *Host) onXfer(f fabric.Frame) {
	if len(f.Data) < 9 || f.Data[8] != 1 {
		return
	}
	h.Net.Send(fabric.Frame{
		Src: h.Name, Dst: f.Src, Port: portXferAck,
		Size: 64, Data: f.Data[:9],
	})
}

// onXferAck wakes the sender blocked in TransferTo.
func (h *Host) onXferAck(f fabric.Frame) {
	id := binary.BigEndian.Uint64(f.Data)
	if c, ok := h.xferWait[id]; ok {
		c.Broadcast()
	}
}
