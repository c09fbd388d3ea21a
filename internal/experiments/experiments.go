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

// Close ends the rig's simulation (cluster.Cluster.Close). Every
// experiment defers it next to its RunFor, so a rig is collectable as
// soon as its row is computed.
func (r *Rig) Close() { r.CL.Close() }

// Pair is a running perftest client/server pair, with the client inside
// a migratable container.
type Pair struct {
	ClientCont *runc.Container
	ServerCont *runc.Container
	Client     *perftest.Client
	Server     *perftest.Server
}

// StartPair launches a server on sNode and a client container on cNode.
func (r *Rig) StartPair(cNode, sNode string, opts perftest.Options) *Pair {
	return r.startPair(cNode, sNode, "cli", "srv", "client", "server", opts)
}

// StartPairNamed is StartPair with explicit perftest names; several
// pairs can then coexist on one node (each server registers an OOB
// endpoint derived from its name). Container names follow the perftest
// names.
func (r *Rig) StartPairNamed(cNode, sNode, cliName, srvName string, opts perftest.Options) *Pair {
	return r.startPair(cNode, sNode, cliName, srvName, cliName+"-cont", srvName+"-cont", opts)
}

func (r *Rig) startPair(cNode, sNode, cliName, srvName, cliCont, srvCont string, opts perftest.Options) *Pair {
	p := &Pair{
		Server: perftest.NewServer(r.CL.Sched, srvName, opts),
		Client: perftest.NewClient(r.CL.Sched, cliName, opts, perftest.Target{Node: sNode, Name: srvName}),
	}
	p.ServerCont = runc.NewContainer(r.CL.Host(sNode), srvCont)
	p.ServerCont.Start(func(tp *task.Process) { p.Server.Run(tp, r.Daemons[sNode]) })
	p.ClientCont = runc.NewContainer(r.CL.Host(cNode), cliCont)
	r.CL.Sched.Go("start-"+cliName, func() {
		p.Server.WaitReady()
		p.ClientCont.Start(func(tp *task.Process) { p.Client.Run(tp, r.Daemons[cNode]) })
	})
	return p
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
