// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed: the Fig. 3 blackout
// breakdown, the Fig. 4 wait-before-stop study, the Table 4
// virtualization overhead, the Fig. 5 throughput timelines, the Fig. 6
// Hadoop comparison, the §6 MigrOS analysis, and the ablations of the
// design choices DESIGN.md calls out.
//
// Each experiment builds a fresh deterministic cluster, drives the
// workload and migration, and returns typed rows that cmd/migrbench
// renders and the fixed benchmark (bench/) measures.
package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/perftest"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// Rig is a testbed with MigrRDMA daemons on every host.
type Rig struct {
	CL      *cluster.Cluster
	Daemons map[string]*core.Daemon
}

// NewRig builds a cluster of the named hosts.
func NewRig(seed int64, names ...string) *Rig {
	return NewRigCfg(cluster.Config{Seed: seed}, names...)
}

// NewRigCfg builds a cluster with explicit component parameters.
func NewRigCfg(cfg cluster.Config, names ...string) *Rig {
	cl := cluster.New(cfg, names...)
	r := &Rig{CL: cl, Daemons: make(map[string]*core.Daemon)}
	for _, n := range names {
		r.Daemons[n] = core.NewDaemon(cl.Host(n))
	}
	return r
}

// Close ends the rig's simulation (cluster.Cluster.Close). Whoever
// builds a rig defers it, so a rig is collectable as soon as its row is
// computed.
func (r *Rig) Close() { r.CL.Close() }

// Horizon bounds every experiment in simulated time. Only a run that
// hangs gets there: a healthy one ends when its driver returns, so the
// value moves no row and the experiments share one — above the longest
// healthy run (the Fig. 6 jobs, under a minute) with room to spare.
const Horizon = 10 * time.Minute

// Run is the life of one run on the rig. It spawns drive as a proc,
// after everything the caller has spawned, and runs the scheduler until
// drive returns; then it stops the scheduler at once — what drive
// measured is fixed, and the tail to the horizon (the workload still
// posting, its timers still firing) would dwarf the run — and returns
// drive's error. drive may block on anything the simulation
// will wake. If it has not returned when the clock reaches horizon the
// run hung, and the error says which procs are parked for good and
// where. A hung run costs the host time of simulating up to the
// horizon with traffic still flowing, which is why chaos, a thousand
// short runs to a sweep, passes a far nearer one than Horizon.
func (r *Rig) Run(horizon time.Duration, drive func() error) error {
	sched := r.CL.Sched
	var err error
	returned := false
	sched.Go("driver", func() {
		err = drive()
		returned = true
		sched.Stop()
	})
	sched.RunFor(horizon)
	if !returned {
		return fmt.Errorf("driver did not complete within %v: %s", horizon, sched.BlockedReport())
	}
	return err
}

// Pair is a running perftest client/server pair, with the client inside
// a migratable container.
type Pair struct {
	ClientCont *runc.Container
	ServerCont *runc.Container
	Client     *perftest.Client
	Server     *perftest.Server
}

// wrapErr prefixes *err, when there is one, with the point the row was
// measured at. Every row function defers it, so a sweep's error says
// which cell failed without the sweep wrapping anything.
func wrapErr(err *error, format string, args ...any) {
	if *err != nil {
		*err = fmt.Errorf(format+": %w", append(args, *err)...)
	}
}

// sweep is the package's one sweep: it runs run(0), …, run(cells-1) in
// order, one simulation per cell, and returns their rows. The first
// error ends it, and no rows come back with it. A sweep over several
// axes numbers its cells row-major, the last axis fastest.
func sweep[R any](cells int, run func(cell int) (R, error)) ([]R, error) {
	rows := make([]R, 0, cells)
	for c := 0; c < cells; c++ {
		r, err := run(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Stop ends the pair's traffic from the driver proc: the client stops
// posting and drains what it has in flight, then the server stops.
func (p *Pair) Stop() {
	p.Client.Stop()
	p.Client.Wait()
	p.Server.Stop()
}

// Errors returns what the pair's endpoints recorded as gone wrong
// (failed completions, order or payload slips), the client's first.
func (p *Pair) Errors() []string {
	var errs []string
	for _, e := range p.Client.Stats.Errors {
		errs = append(errs, "client: "+e)
	}
	for _, e := range p.Server.Stats.Errors {
		errs = append(errs, "server: "+e)
	}
	return errs
}

// StartPair launches a server on sNode and a client container on cNode.
func (r *Rig) StartPair(cNode, sNode string, opts perftest.Options) *Pair {
	p, _ := r.start(cNode, "cli", "client", "srv", opts, serverAt{sNode, "server"})
	return p
}

// StartPairNamed is StartPair with explicit perftest names; several
// pairs can then coexist on one node (each server registers an OOB
// endpoint derived from its name). Container names follow the perftest
// names.
func (r *Rig) StartPairNamed(cNode, sNode, cliName, srvName string, opts perftest.Options) *Pair {
	p, _ := r.start(cNode, cliName, cliName+"-cont", srvName, opts, serverAt{sNode, srvName + "-cont"})
	return p
}

// serverAt places one perftest server: its node and its container.
type serverAt struct{ node, cont string }

// start is the one way perftest traffic starts: a server named srvName in
// a container on each node of at, spawned in that order, then the
// client's starter proc, which starts the client container on cNode once
// every server is ready. The client targets every server; the Pair holds
// the first, and servers all of them.
func (r *Rig) start(cNode, cliName, cliCont, srvName string, opts perftest.Options, at ...serverAt) (*Pair, []*perftest.Server) {
	p := &Pair{}
	var servers []*perftest.Server
	var targets []perftest.Target
	for _, a := range at {
		srv, d := perftest.NewServer(r.CL.Sched, srvName, opts), r.Daemons[a.node]
		cont := runc.NewContainer(r.CL.Host(a.node), a.cont)
		cont.Start(func(tp *task.Process) { srv.Run(tp, d) })
		if p.Server == nil {
			p.Server, p.ServerCont = srv, cont
		}
		servers = append(servers, srv)
		targets = append(targets, perftest.Target{Node: a.node, Name: srvName})
	}
	p.Client = perftest.NewClient(r.CL.Sched, cliName, opts, targets...)
	p.ClientCont = runc.NewContainer(r.CL.Host(cNode), cliCont)
	r.CL.Sched.Go("start-"+cliName, func() {
		for _, srv := range servers {
			srv.WaitReady()
		}
		p.ClientCont.Start(func(tp *task.Process) { p.Client.Run(tp, r.Daemons[cNode]) })
	})
	return p, servers
}

// Migrate runs one live migration of the container from its current
// host to dst.
func (r *Rig) Migrate(c *runc.Container, srcNode, dstNode string, opts runc.MigrateOptions) (*runc.Report, error) {
	m := &runc.Migrator{
		C:    c,
		Dst:  r.CL.Host(dstNode),
		Plug: core.NewPlugin(r.Daemons[srcNode], r.Daemons[dstNode]),
		Opts: opts,
	}
	return m.Migrate()
}

// settle gives in-flight traffic time to reach steady state.
const settle = 3 * time.Millisecond
