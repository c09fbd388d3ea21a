package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"migrrdma/internal/chaos"
)

// drive runs the command over the catalogue and returns its exit code
// and both streams.
func drive(catalogue []chaos.Scenario, args ...string) (code int, out, errOut string) {
	var o, e bytes.Buffer
	code = run(catalogue, args, &o, &e)
	return code, o.String(), e.String()
}

func TestListPrintsEveryScenarioOnce(t *testing.T) {
	code, out, _ := drive(chaos.Scenarios(), "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, sc := range chaos.Scenarios() {
		if n := len(regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(sc.Name)+` `).FindAllString(out, -1)); n != 1 {
			t.Errorf("-list prints %s %d times, want once", sc.Name, n)
		}
	}
	// A pattern narrows the listing the same way it narrows a sweep.
	if _, out, _ := drive(chaos.Scenarios(), "-list", "-scenario", "tenant/*"); strings.Count(out, "tenant/") != 3 || strings.Contains(out, "single/") {
		t.Errorf("-list -scenario 'tenant/*' printed:\n%s", out)
	}
}

func TestOnePassingRunAndItsReplay(t *testing.T) {
	code, out, errOut := drive(chaos.Scenarios(), "-scenario", "single/clean", "-seed", "1", "-v")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	if strings.Count(out, " PASS ") != 1 || !strings.Contains(out, "1 runs, 0 failures") {
		t.Fatalf("want exactly one PASS line and the tally, got:\n%s", out)
	}
	// The replay handle a failure would print selects the same run.
	again, out2, _ := drive(chaos.Scenarios(), strings.Fields("-scenario single/clean -seed 1 -v")...)
	if again != 0 || out2 != out {
		t.Errorf("replay differs:\n%s\nvs\n%s", out2, out)
	}
}

func TestUnknownScenarioNamesNearestTiers(t *testing.T) {
	code, out, errOut := drive(chaos.Scenarios(), "-scenario", "plugg/clean-plug")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q", code, out)
	}
	for _, want := range []string{`unknown scenario "plugg/clean-plug"`, "plug/*", "plug-abort/*", "-list"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr %q does not mention %s", errOut, want)
		}
	}
	if strings.Contains(errOut, "drain/*") {
		t.Errorf("stderr lists a far tier: %q", errOut)
	}
	if code, _, _ := drive(chaos.Scenarios(), "-no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}

func TestFailingRunPrintsReplay(t *testing.T) {
	impossible, _ := chaos.ScenarioByName("single/clean")
	impossible.Name = "test/impossible"
	impossible.Checkers = append(impossible.Checkers, chaos.Checker{Name: "impossible",
		Check: func(*chaos.Evidence) []string { return []string{"nothing satisfies this checker"} }})
	code, out, _ := drive([]chaos.Scenario{impossible}, "-seed", "3", "-v")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"FAIL(1)", "violation: nothing satisfies this checker",
		"replay: migrchaos -scenario test/impossible -seed 3 -v", " stage predump", "1 runs, 1 failures"} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not contain %q:\n%s", want, out)
		}
	}
}
