// Package migrrdma is a pure-Go reproduction of MigrRDMA, the
// software-based live migration system for RDMA presented at SIGCOMM
// 2025 ("Software-based Live Migration for RDMA", Li, Shu, Xiong, Ren).
//
// Real RDMA hardware is unreachable from portable Go, so the repository
// rebuilds the full substrate as a deterministic simulation and
// implements MigrRDMA faithfully on top of it:
//
//   - internal/sim      — cooperative virtual-time scheduler
//   - internal/fabric   — rate-accurate 100 Gbps switched fabric
//   - internal/mem      — per-process virtual memory with dirty tracking
//   - internal/rnic     — an RNIC with hardware-offloaded RC/UD transport
//   - internal/verbs    — the ibverbs-shaped library/driver seam
//   - internal/criu     — checkpoint/restore with pre-copy & partial restore
//   - internal/runc     — containers and the migration workflow (Fig. 2b)
//   - internal/core     — MigrRDMA itself: the indirection layer, the
//     virtualization tables, wait-before-stop, the CRIU plugin, the
//     per-host control daemon
//   - internal/perftest, internal/hdfs — the paper's workloads
//   - internal/migros   — the §6 hardware-assisted baseline model
//   - internal/experiments — regenerates every table and figure
//
// This package re-exports the surface a downstream user needs: build a
// testbed, run MigrRDMA applications in containers, and live-migrate
// them. See examples/ for runnable programs and cmd/migrbench for the
// evaluation harness.
package migrrdma

import (
	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/experiments"
	"migrrdma/internal/mem"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// Re-exported building blocks. The underlying packages carry the full
// documentation; these aliases exist so example code and downstream
// users have a single import.
type (
	// Testbed is a simulated cluster with a MigrRDMA daemon per host.
	Testbed = experiments.Rig
	// Session is the MigrRDMA guest library loaded into a process.
	Session = core.Session
	// Daemon is the per-host MigrRDMA control endpoint.
	Daemon = core.Daemon
	// QP, CQ, MR, PD are the guest library's virtualized handles.
	QP = core.QP
	CQ = core.CQ
	MR = core.MR
	PD = core.PD
	// QPConfig configures queue pair creation.
	QPConfig = core.QPConfig
	// Container is a migratable container of processes.
	Container = runc.Container
	// Migrator drives one live migration.
	Migrator = runc.Migrator
	// MigrateOptions tunes a migration (pre-setup, cutover mode,
	// transfer mode, chunk size).
	MigrateOptions = runc.MigrateOptions
	// MigrationReport is the per-phase outcome of a migration.
	MigrationReport = runc.Report
	// Process is a migratable process with its own address space.
	Process = task.Process
	// Cluster is the raw simulated testbed (hosts, fabric, scheduler).
	Cluster = cluster.Cluster
	// Scheduler is the deterministic virtual-time scheduler.
	Scheduler = sim.Scheduler
	// Addr is a virtual memory address.
	Addr = mem.Addr
	// SendWR, RecvWR, SGE, CQE, ModifyAttr are work-request types.
	SendWR     = rnic.SendWR
	RecvWR     = rnic.RecvWR
	SGE        = rnic.SGE
	CQE        = rnic.CQE
	ModifyAttr = rnic.ModifyAttr
	QPState    = rnic.QPState
	QPType     = rnic.QPType
	// PerftestOptions configures the bundled perftest workload.
	PerftestOptions = perftest.Options
)

// Verb opcodes and access flags, re-exported for application code.
const (
	OpSend     = rnic.OpSend
	OpSendImm  = rnic.OpSendImm
	OpWrite    = rnic.OpWrite
	OpWriteImm = rnic.OpWriteImm
	OpRead     = rnic.OpRead
	OpCompSwap = rnic.OpCompSwap
	OpFetchAdd = rnic.OpFetchAdd

	AccessLocalWrite   = rnic.AccessLocalWrite
	AccessRemoteRead   = rnic.AccessRemoteRead
	AccessRemoteWrite  = rnic.AccessRemoteWrite
	AccessRemoteAtomic = rnic.AccessRemoteAtomic

	StateInit = rnic.StateInit
	StateRTR  = rnic.StateRTR
	StateRTS  = rnic.StateRTS
)

// Horizon is the simulated-time bound the experiments pass to
// Testbed.Run: only a run that hangs reaches it.
const Horizon = experiments.Horizon

// NewTestbed builds a simulated cluster of the named hosts, each with a
// 100 Gbps port, an RNIC, a CRIU instance and a MigrRDMA daemon.
func NewTestbed(seed int64, hosts ...string) *Testbed {
	return experiments.NewRig(seed, hosts...)
}

// NewSession loads the MigrRDMA guest library into a process on the
// daemon's host.
func NewSession(p *Process, d *Daemon) *Session { return core.NewSession(p, d) }

// NewContainer creates a container on a testbed host.
func NewContainer(t *Testbed, host, name string) *Container {
	return runc.NewContainer(t.CL.Host(host), name)
}

// NewPlugin creates the MigrRDMA CRIU plugin for a src→dst migration.
func NewPlugin(src, dst *Daemon) *core.Plugin { return core.NewPlugin(src, dst) }

// DefaultMigrateOptions mirrors the paper's configuration (pre-setup
// on, go-back-N cutover, monolithic transfer).
func DefaultMigrateOptions() MigrateOptions { return runc.DefaultMigrateOptions() }
