// Command migrchaos runs deterministic fault-injection sweeps over live
// migrations and reports invariant violations. Every run is fully
// determined by (seed, scenario); a failing seed replays exactly:
//
//	migrchaos                                  # the whole catalogue, 32 seeds
//	migrchaos -list                            # scenarios, their faults and checkers
//	migrchaos -scenario 'plug/*' -seeds 1000   # one tier, long sweep
//	migrchaos -scenario 'abort/*,plug-abort/*,pipelined-abort/*'   # every fail-and-recover tier
//	migrchaos -scenario single/loss-burst -seed 17 -v              # replay one run
//	migrchaos -scenario 'concurrent/*' -cap 1  # the same three moves, one at a time
//
// -cap overrides MaxParallel of the scenarios run through the
// orchestrator (concurrent/*, drain/*).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
	"sync/atomic"

	"migrrdma/internal/chaos"
	"migrrdma/internal/sim"
)

func main() {
	os.Exit(run(chaos.Scenarios(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is main over an explicit catalogue and explicit streams, so the
// smoke test can drive it. It returns the exit code: 0 all runs passed,
// 1 some run violated an invariant, 2 the command line was wrong.
func run(catalogue []chaos.Scenario, args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("migrchaos", flag.ContinueOnError)
	fs.SetOutput(errOut)
	pattern := fs.String("scenario", "*/*", "comma-separated scenario names or globs (tier/*, */clean*); see -list")
	seed := fs.Int64("seed", 0, "run only this seed (default: sweep 1..seeds)")
	seeds := fs.Int64("seeds", 32, "number of seeds to sweep")
	verbose := fs.Bool("v", false, "print every run, not just failures, and a failing run's stage/fault/plug/chunk timeline")
	list := fs.Bool("list", false, "list the selected scenarios with their faults and checkers, and exit")
	capFlag := fs.Int("cap", 0, "override MaxParallel of the scenarios run through the orchestrator (0: as declared)")
	parallel := fs.Int("parallel", 1, "worker pool size; every (scenario, seed) run is an independent simulation, output order is unchanged")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectScenarios(catalogue, *pattern)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	if *list {
		for _, sc := range selected {
			describe(out, sc)
		}
		return 0
	}
	lo, hi := int64(1), *seeds
	if *seed != 0 {
		lo, hi = *seed, *seed
	}
	replayFlags := ""
	if *capFlag > 0 {
		replayFlags = fmt.Sprintf(" -cap %d", *capFlag)
	}

	// Every (scenario, seed) is one job; the pool runs them in any order
	// and the results print in job order. Each worker renders its report
	// and drops it: a report pins its whole rig, and a long sweep would
	// otherwise hold thousands.
	var seedList []int64
	for s := lo; s <= hi; s++ {
		seedList = append(seedList, s)
	}
	texts := make([]string, len(selected)*len(seedList))
	var failures atomic.Int64
	sim.RunIndexed(len(texts), *parallel, func(i int) {
		sc := selected[i/len(seedList)]
		if *capFlag > 0 && sc.Migrate.Via == chaos.Orchestrated {
			sc.Migrate.Cap = *capFlag
		}
		rep := chaos.Run(seedList[i%len(seedList)], sc)
		texts[i] = render(rep, *verbose, replayFlags)
		if !rep.OK() {
			failures.Add(1)
		}
	})
	for _, text := range texts {
		fmt.Fprint(out, text)
	}
	fmt.Fprintf(out, "%d runs, %d failures\n", len(texts), failures.Load())
	if failures.Load() > 0 {
		return 1
	}
	return 0
}

// render is what the sweep prints for one run: nothing for a pass
// unless verbose; for a failure the summary line, every violation, the
// ledger timeline if verbose, and the command that replays it.
func render(rep *chaos.Report, verbose bool, replayFlags string) string {
	var b strings.Builder
	if verbose || !rep.OK() {
		fmt.Fprintln(&b, rep)
	}
	if rep.OK() {
		return b.String()
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "    violation: %s\n", v)
	}
	if verbose {
		for _, line := range rep.Timeline {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	fmt.Fprintf(&b, "    replay: migrchaos -scenario %s -seed %d%s -v\n", rep.Scenario, rep.Seed, replayFlags)
	return b.String()
}

// selectScenarios returns the catalogue entries matching any of the
// comma-separated patterns, in catalogue order. A pattern that matches
// nothing is an error naming the tiers closest to it.
func selectScenarios(catalogue []chaos.Scenario, patterns string) ([]chaos.Scenario, error) {
	picked := make([]bool, len(catalogue))
	for _, pat := range strings.Split(patterns, ",") {
		matched := false
		for i, sc := range catalogue {
			ok, err := path.Match(pat, sc.Name)
			if err != nil {
				return nil, fmt.Errorf("bad -scenario pattern %q: %v", pat, err)
			}
			if ok {
				picked[i], matched = true, true
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown scenario %q; nearest tiers: %s (try -list)",
				pat, strings.Join(nearestTiers(catalogue, pat), ", "))
		}
	}
	var out []chaos.Scenario
	for i, sc := range catalogue {
		if picked[i] {
			out = append(out, sc)
		}
	}
	return out, nil
}

// nearestTiers lists the tiers sharing the longest prefix with the
// pattern, or every tier when none shares any.
func nearestTiers(catalogue []chaos.Scenario, pat string) []string {
	var tiers, best []string
	longest := 0
	for _, sc := range catalogue {
		tier, _, _ := strings.Cut(sc.Name, "/")
		if len(tiers) > 0 && tiers[len(tiers)-1] == tier {
			continue
		}
		tiers = append(tiers, tier)
		n := 0
		for n < len(tier) && n < len(pat) && tier[n] == pat[n] {
			n++
		}
		if n > longest {
			longest, best = n, nil
		}
		if n == longest && n > 0 {
			best = append(best, tier+"/*")
		}
	}
	if len(best) == 0 {
		return tiers
	}
	return best
}

// describe prints one catalogue entry: what migrates, the faults and
// the scenario-specific checkers.
func describe(out io.Writer, sc chaos.Scenario) {
	var checks []string
	for _, c := range sc.Checkers {
		checks = append(checks, c.Name)
	}
	abort := sc.Abort.Phase
	if sc.Abort.Round != "" {
		abort = fmt.Sprintf("%s#%d", sc.Abort.Round, sc.Abort.Chunk)
	}
	fmt.Fprintf(out, "%-40s hosts=%-2d faults=%d checkers=%s abort=%s\n",
		sc.Name, len(sc.Rig.Hosts), len(sc.Faults), strings.Join(checks, ","), abort)
	for _, f := range sc.Faults {
		when := fmt.Sprintf("at %v", f.At)
		if f.Phase != "" {
			when = "on stage " + f.Phase
		}
		fmt.Fprintf(out, "    %-16s node=%-8s %s for %v\n", f.Kind, f.Node, when, f.Duration)
	}
}
