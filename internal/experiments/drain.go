package experiments

import (
	"fmt"
	"sort"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/fabric"
	"migrrdma/internal/orchestrator"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// This file is the datacenter drain experiment: a 16-rack × 8-host
// two-tier cluster (128 hosts, 2:1 oversubscribed spine) where a
// declarative Drain evacuates 32 hosts whose containers carry
// thousands of live QPs, and the blackout distribution is measured as
// a function of the orchestrator's MaxParallel and of what the
// placement policy can do: the half-racks variant drains the lower
// half of eight racks, leaving same-rack headroom the least-loaded
// policy should prefer, while the whole-racks variant drains four
// entire racks so every migration is forced over the spine.

// The drain-experiment topology.
const (
	DrainExpRacks        = 16
	DrainExpHostsPerRack = 8
	// DrainExpEvacuated hosts are drained in every variant.
	DrainExpEvacuated = 32
)

// Drain-experiment variants: which 32 hosts the selector matches.
const (
	// DrainHalfRacks drains h0..h3 of racks 0..7 — half of each rack,
	// so same-rack destinations exist and spare the spine.
	DrainHalfRacks = "half-racks"
	// DrainWholeRacks drains racks 0..3 entirely — no same-rack
	// destination survives, every move crosses the spine.
	DrainWholeRacks = "whole-racks"
)

// drainExpSeed is the seed the sweep runs at. The rig draws no fault,
// so the points do not depend on it.
const drainExpSeed = 83

// drainExpSLO is the per-migration blackout objective the drain is
// submitted under; misses are recorded, not enforced.
const drainExpSLO = 200 * time.Millisecond

// DrainPoint is one (variant, MaxParallel) drain measurement.
type DrainPoint struct {
	Variant     string
	MaxParallel int
	// Migrations is the accepted count (one per drained host); QPs the
	// live queue pairs across all client/server endpoints at drain time.
	Migrations int
	QPs        int

	// Blackout percentiles across the drain's migrations.
	P50, P95, P99, Max time.Duration
	// Elapsed is drain submission to last migration done.
	Elapsed time.Duration

	// SameRackDst counts migrations placed inside their source rack;
	// the rest crossed the spine.
	SameRackDst int
	// SpineBytes is the uplink volume (both directions, all racks) the
	// drain window added; WireBytes the rnic transmit delta.
	SpineBytes int64
	WireBytes  int64
	SLOMisses  int
}

// String renders a table row.
func (p DrainPoint) String() string {
	return fmt.Sprintf("%-11s par=%-2d migs=%-3d qps=%-5d p50=%-9v p95=%-9v p99=%-9v max=%-9v elapsed=%-10v samerack=%d/%d spine=%dMB slo-miss=%d",
		p.Variant, p.MaxParallel, p.Migrations, p.QPs,
		p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond),
		p.P99.Round(time.Microsecond), p.Max.Round(time.Microsecond),
		p.Elapsed.Round(time.Microsecond),
		p.SameRackDst, p.Migrations, p.SpineBytes/(1<<20), p.SLOMisses)
}

// drainExpName is the canonical host name "r<rack>h<idx>".
func drainExpName(rack, idx int) string {
	return fmt.Sprintf("r%dh%d", rack, idx)
}

// drainExpTargets returns the variant's drained-host set.
func drainExpTargets(variant string) (map[string]bool, error) {
	set := make(map[string]bool, DrainExpEvacuated)
	switch variant {
	case DrainHalfRacks:
		for r := 0; r < 8; r++ {
			for h := 0; h < 4; h++ {
				set[drainExpName(r, h)] = true
			}
		}
	case DrainWholeRacks:
		for r := 0; r < 4; r++ {
			for h := 0; h < DrainExpHostsPerRack; h++ {
				set[drainExpName(r, h)] = true
			}
		}
	default:
		return nil, fmt.Errorf("unknown variant %q (have %s, %s)",
			variant, DrainHalfRacks, DrainWholeRacks)
	}
	return set, nil
}

// RunDrainExpSeeded builds the 128-host two-tier cluster, starts one
// order-checked SEND client per drained host (its server eight racks
// over, so the steady-state workload itself crosses the spine), drains
// the variant's 32 hosts under MaxParallel, and reports the blackout
// distribution and the placement split.
func RunDrainExpSeeded(variant string, maxParallel int, seed int64) (_ DrainPoint, err error) {
	defer wrapErr(&err, "drain %s par=%d seed=%d", variant, maxParallel, seed)
	targets, err := drainExpTargets(variant)
	if err != nil {
		return DrainPoint{}, err
	}
	cfg := cluster.FastCheckpointTestbed(seed)
	cfg.Fabric.Topology = fabric.Topology{
		Racks: DrainExpRacks, HostsPerRack: DrainExpHostsPerRack,
		// 2:1 rack oversubscription at the paper's 100 Gbps host links.
		UplinkRate: 200e9,
	}
	var names []string
	for rk := 0; rk < DrainExpRacks; rk++ {
		for h := 0; h < DrainExpHostsPerRack; h++ {
			names = append(names, drainExpName(rk, h))
		}
	}
	r := NewRigCfg(cfg, names...)
	defer r.Close()
	cl := r.CL

	drained := make([]string, 0, len(targets))
	for n := range targets {
		drained = append(drained, n)
	}
	sort.Strings(drained)

	// Thousands of QPs: 32 clients × 32 QPs, mirrored server-side. The
	// post gap is deliberately lazy — the experiment measures drain
	// orchestration over a large *state* footprint, and a hot post rate
	// on 2048 QPs only inflates simulation cost without changing the
	// blackout story.
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 4, NumQPs: 32,
		Messages: 0, CheckOrder: true, PostGap: 500 * time.Microsecond,
	}
	pairs := make(map[string]*Pair, len(drained))
	for _, cNode := range drained {
		h := cl.Host(cNode)
		sNode := drainExpName((h.Rack+8)%DrainExpRacks, hostIdx(cNode))
		pairs[cNode] = r.StartPairNamed(cNode, sNode, "cli-"+cNode, "srv-"+cNode, opts)
	}

	orch := orchestrator.New(orchestrator.Config{
		CL: cl, Daemons: r.Daemons, Opts: runc.DefaultMigrateOptions(),
	})
	for _, cNode := range drained {
		orch.Register(pairs[cNode].ClientCont)
	}

	var (
		d       *orchestrator.Drain
		elapsed time.Duration
		spine   int64
		wire    int64
	)
	sched := cl.Sched
	err = r.Run(Horizon, func() error {
		for _, cNode := range drained {
			pairs[cNode].Client.WaitReady()
		}
		sched.Sleep(settle)
		m := cl.Metrics
		spineBefore := m.Sum("fabric", "uplink_tx_bytes") + m.Sum("fabric", "uplink_rx_bytes")
		wireBefore := m.Sum("rnic", "tx_bytes")
		start := sched.Now()
		d = orch.Submit(&orchestrator.Drain{
			Selector:    func(h *cluster.Host) bool { return targets[h.Name] },
			BlackoutSLO: drainExpSLO,
			MaxParallel: maxParallel,
			Retries:     1,
		})
		d.Wait()
		elapsed = sched.Now() - start
		spine = m.Sum("fabric", "uplink_tx_bytes") + m.Sum("fabric", "uplink_rx_bytes") - spineBefore
		wire = m.Sum("rnic", "tx_bytes") - wireBefore
		// Drain a little post-cutover, then stop the workload.
		sched.Sleep(2 * time.Millisecond)
		for _, cNode := range drained {
			pairs[cNode].Stop()
		}
		return nil
	})
	if err != nil {
		return DrainPoint{}, err
	}

	pt := DrainPoint{
		Variant: variant, MaxParallel: maxParallel,
		QPs:     2 * opts.NumQPs * len(drained),
		Elapsed: elapsed, SpineBytes: spine, WireBytes: wire,
	}
	var blackouts []time.Duration
	for _, m := range d.Migrations {
		if m.State() != orchestrator.Done {
			return DrainPoint{}, fmt.Errorf("%s: state %s: %v", m.ID, m.State(), m.Err)
		}
		if targets[m.Dst] {
			return DrainPoint{}, fmt.Errorf("%s placed on drained host %s", m.ID, m.Dst)
		}
		if cl.Host(m.Src).Rack == cl.Host(m.Dst).Rack {
			pt.SameRackDst++
		}
		if !m.SLOMet {
			pt.SLOMisses++
		}
		blackouts = append(blackouts, m.Blackout)
	}
	pt.Migrations = len(blackouts)
	if pt.Migrations != DrainExpEvacuated {
		return DrainPoint{}, fmt.Errorf("%d migrations, want %d", pt.Migrations, DrainExpEvacuated)
	}
	for _, cNode := range drained {
		if errs := pairs[cNode].Errors(); len(errs) > 0 {
			return DrainPoint{}, fmt.Errorf("pair of %s: %d workload errors, first %s", cNode, len(errs), errs[0])
		}
	}
	sort.Slice(blackouts, func(i, j int) bool { return blackouts[i] < blackouts[j] })
	pt.P50 = percentile(blackouts, 50)
	pt.P95 = percentile(blackouts, 95)
	pt.P99 = percentile(blackouts, 99)
	pt.Max = blackouts[len(blackouts)-1]
	return pt, nil
}

// DrainSweep measures both variants at every MaxParallel, whole racks
// after half racks so the table reads as a placement contrast.
func DrainSweep(parallels []int) ([]DrainPoint, error) {
	variants := []string{DrainHalfRacks, DrainWholeRacks}
	return sweep(len(variants)*len(parallels), func(i int) (DrainPoint, error) {
		return RunDrainExpSeeded(variants[i/len(parallels)], parallels[i%len(parallels)], drainExpSeed)
	})
}

// percentile reads the p-th percentile off a sorted sample
// (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// hostIdx parses the in-rack index off a "r<rack>h<idx>" name.
func hostIdx(name string) int {
	for i := 1; i < len(name); i++ {
		if name[i] == 'h' {
			n := 0
			for _, c := range name[i+1:] {
				n = n*10 + int(c-'0')
			}
			return n
		}
	}
	panic("drain: host name " + name + " is not r<rack>h<idx>")
}
