package main

import (
	"bytes"
	"strings"
	"testing"
)

// drive runs the command and returns its exit code and both streams.
func drive(args ...string) (code int, out, errOut string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

func TestUnknownExperimentNamesTheValidOnes(t *testing.T) {
	code, out, errOut := drive("-exp", "fig4")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q", code, out)
	}
	for _, want := range []string{`unknown experiment "fig4"`, "all", "fig4a", "ablation-keytable", "drain"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr %q does not mention %s", errOut, want)
		}
	}
	for _, gone := range []string{"concurrent", "loss"} {
		if code, _, errOut := drive("-exp", gone); code != 2 || !strings.Contains(errOut, `unknown experiment "`+gone+`"`) {
			t.Errorf("-exp %s exited %d, stderr %q", gone, code, errOut)
		}
	}
	for _, bad := range []string{"-no-such-flag", "-k"} {
		if code, _, _ := drive(bad, "4"); code != 2 {
			t.Errorf("%s exited %d, want 2", bad, code)
		}
	}
	if code, _, errOut := drive("-exp", "migros", "-qps", "16,x"); code != 2 || !strings.Contains(errOut, `bad integer "x"`) {
		t.Errorf("bad -qps exited %d, stderr %q", code, errOut)
	}
}

// TestCheapestExperiments: one experiment that builds no rig and one
// that runs a single migration each print their banner and rows.
func TestCheapestExperiments(t *testing.T) {
	for _, c := range []struct {
		args        []string
		banner, row string
	}{
		{[]string{"-exp", "ablation-keytable"}, "════ Ablation — dense key array vs LubeRDMA linked list ════", "MRs=4 "},
		{[]string{"-exp", "latency"}, "════ Per-op latency across a live migration", "ops="},
	} {
		code, out, errOut := drive(c.args...)
		if code != 0 || errOut != "" {
			t.Fatalf("%v: exit %d, stderr %q", c.args, code, errOut)
		}
		if !strings.Contains(out, c.banner) || !strings.Contains(out, "\n"+c.row) || !strings.Contains(out, "(completed in ") {
			t.Errorf("%v printed:\n%s", c.args, out)
		}
		if n := strings.Count(out, "════") / 2; n != 1 {
			t.Errorf("%v ran %d experiments, want 1", c.args, n)
		}
	}
}
