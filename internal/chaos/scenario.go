package chaos

import (
	"fmt"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/metrics"
	"migrrdma/internal/runc"
)

// Scenario is one catalogue entry: everything Run needs to build the
// rig, drive the workload, migrate it, perturb the fabric and judge the
// outcome. A new tier is a new set of entries, not a new runner.
type Scenario struct {
	// Name is "tier/schedule" — the catalogue key, the golden key and
	// the handle `migrchaos -scenario` replays by.
	Name string

	Rig      Rig
	Workload Workload
	Migrate  Migrate
	// Faults perturb the fabric at absolute times or on migration stages.
	Faults []Fault
	// Abort, when set, makes a migration fail at the named point; the
	// run must then recover in place (or, with Retry, succeed on the
	// second attempt).
	Abort Abort

	// MustMove names the counters ("component/name", summed over the
	// cluster) a run must leave non-zero — the vacuity guards: a
	// scenario whose faults silently stop biting, or whose plug never
	// buffers a frame, fails instead of passing with nothing proven.
	MustMove []string
	// Checkers are the scenario-specific invariants. Liveness, the
	// per-migration outcome, MustMove and the residue census run on
	// every scenario and are not listed.
	Checkers []Checker
}

// Rig is the cluster a scenario runs on: FastCheckpointTestbed(seed)
// over Hosts, with the overrides below.
type Rig struct {
	Hosts []string
	// Topology, when not flat, replaces the single switch by racks
	// joined over a spine; Hosts fill the racks in declaration order.
	Topology fabric.Topology
	// WBSTimeout overrides wait-before-stop's drain timeout on every
	// daemon; zero keeps the default. Scenarios that deliberately
	// strand in-flight WRs use it to reach the §3.4 timeout path
	// without stalling the run.
	WBSTimeout time.Duration
	// UnlimitedRetries lifts the transport retry bound so QPs survive a
	// loss window longer than MaxRetries×RTO instead of erroring out
	// (the rnr_retry=7 "retry forever" semantics).
	UnlimitedRetries bool
}

// Side names the half of a perftest pair whose container migrates.
type Side int

const (
	// Client migrates the traffic source.
	Client Side = iota
	// Server migrates the receiving side of the SEND stream — the shape
	// where cutover mode matters: at switch-partners the resumed client
	// races ahead of the migrated service's own resume.
	Server
)

// Pair is one perftest client/server pair streaming endless
// order-checked SENDs, one side of which migrates.
type Pair struct {
	// Name suffixes the perftest and container names ("cli1", "srv1",
	// "cli1-cont"); empty gives the classic "cli"/"srv" in containers
	// "client"/"server".
	Name           string
	Client, Server string // host names
	Moves          Side
	// Dst is the destination host; empty when an orchestrated run's
	// rack-0 drain places the container.
	Dst string
}

// Workload is the traffic a scenario migrates: perftest pairs, or the
// multi-tenant service with its phase-pinned session churn.
type Workload struct {
	Pairs []Pair
	// RecvDepth deepens the servers' receive ring (zero: perftest's
	// default).
	RecvDepth int
	// PageHog attaches the chaos memhog to the first migrating process
	// so a pipelined transfer exercises every elision path.
	PageHog bool
	// Tenant replaces the pairs by the tenant service on "src" (which
	// migrates to "dst") and its gateway on "gw".
	Tenant bool
}

// Via selects what drives a scenario's migrations.
type Via int

const (
	// Direct runs one runc.Migrator on the driver proc (migration "m0").
	Direct Via = iota
	// Orchestrated registers every migrating container with an
	// orchestrator and submits one drain under MaxParallel = Cap
	// (migrations "d1/<src>/<container>"): a mover that names its
	// destination is listed with it, the others are found by evacuating
	// rack 0 and placed by the placement policy.
	Orchestrated
)

// Migrate says how the workload's migrating containers move.
type Migrate struct {
	Via Via
	Cap int

	Cutover    runc.CutoverMode
	Transfer   runc.TransferMode
	ChunkPages int // pipelined chunk size; zero is runc's default
}

// Abort is an injected abort point for the first migrating container.
type Abort struct {
	// Phase is the workflow phase whose opening stage event the run's
	// listener refuses.
	Phase string
	// Round and Chunk instead abort a pipelined transfer mid-stream: the
	// listener refuses the Chunk-th chunk send of the named round.
	Round string
	Chunk int
	// Retry fails only the first attempt and grants one retry: the
	// driver must roll back, back off and succeed, with the abort and
	// both attempts in the ledger. Without it the run must end rolled
	// back on the source.
	Retry bool
}

// expected reports whether the run must end aborted.
func (a Abort) expected() bool { return (a.Phase != "" || a.Round != "") && !a.Retry }

// Checker is one named invariant over a finished run.
type Checker struct {
	Name string
	// Check returns one message per breach. It may read everything in
	// the Evidence and nothing else.
	Check func(*Evidence) []string
}

// Outcome summarises one migration of a run.
type Outcome struct {
	ID       string
	Src, Dst string
	// Host is where the container's bookkeeping sits once the run ended:
	// Dst after a commit, Src after a rollback.
	Host string
	// FinalStage is the last workflow stage reached — "done" on
	// success, "aborted" after a rollback, the stuck stage on a hung run.
	// Orchestrated, it is the orchestrator's lifecycle state instead,
	// whose "done" is the same word and whose "conflict" is an admission
	// reject.
	FinalStage        string
	Started, Finished time.Duration
	Attempts          int
	// Blackout and SLOMet are the orchestrator's per-migration SLO
	// verdict.
	Blackout time.Duration
	SLOMet   bool
	Report   *runc.Report
	Err      error
}

// Report summarises one chaos run.
type Report struct {
	Seed     int64
	Scenario string
	// Behaviour is a SHA-256 over the run's event ledger — completions,
	// PSN/ACK progress, rkey decisions, stages, faults, plug and chunk
	// events, each with its virtual timestamp. Same (seed, scenario) ⇒
	// identical hash; it is the replay key for a failure.
	Behaviour string
	// Telemetry is a SHA-256 over the mid-run and final metrics
	// snapshot hashes: it moves when a counter is added, renamed or
	// counts differently, even if no event did.
	Telemetry string
	Events    int

	Completed  int64 // client (or gateway-acknowledged) operations
	ServerRecv int64 // server (or service-side) operations
	Dropped    int64 // frames dropped by injected faults and loss
	Duplicated int64 // frames duplicated by injection
	Reordered  int64 // frames delayed by reorder injection
	// FaultsArmed counts fault activations, so a schedule that silently
	// never fired is visible.
	FaultsArmed int

	Migrations []Outcome
	// Metrics is the cluster-wide registry snapshot at the end of the run.
	Metrics *metrics.Snapshot

	// Violations lists every invariant breach; empty means the run
	// passed.
	Violations []string
	// Timeline, on a failed run only, renders the ledger's stage, fault,
	// plug and chunk events — where the migration was when it broke.
	Timeline []string
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders a one-line summary.
func (r *Report) String() string {
	verdict := "PASS"
	if !r.OK() {
		verdict = fmt.Sprintf("FAIL(%d)", len(r.Violations))
	}
	return fmt.Sprintf("seed=%-4d scenario=%-40s %s migs=%d completed=%d dropped=%d dup=%d reord=%d behaviour=%s",
		r.Seed, r.Scenario, verdict, len(r.Migrations), r.Completed, r.Dropped, r.Duplicated, r.Reordered, r.Behaviour[:16])
}
