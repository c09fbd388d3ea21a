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

// small keeps a smoke run to a fraction of a second (a few seconds
// under the race detector): one small message in flight at a time.
var small = []string{"-qps", "1", "-depth", "1", "-msg", "64"}

func TestPhaseReport(t *testing.T) {
	code, out, errOut := drive(small...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"migrating the sender container", "phase report:", "  blackout ", "messages completed, 0 errors"} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not mention %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "metrics registry:") {
		t.Error("the plain form dumped the metrics registry")
	}
}

func TestStatsFormDumpsTheRegistry(t *testing.T) {
	code, out, errOut := drive(append([]string{"stats", "-side", "receiver"}, small...)...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"migrating the receiver container", "phase report:", "metrics registry:", "rnic/tx_bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not mention %q:\n%s", want, out)
		}
	}
}

// TestBadValuesNameTheValidOnes: a misspelt -side used to migrate the
// receiver without a word.
func TestBadValuesNameTheValidOnes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-side", "sendr"}, []string{`unknown -side "sendr"`, "sender", "receiver"}},
		{[]string{"-verb", "atomic"}, []string{`unknown -verb "atomic"`, "send", "write", "read"}},
		{[]string{"-no-such-flag"}, []string{"-no-such-flag"}},
	} {
		code, out, errOut := drive(c.args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q", c.args, code, out)
		}
		for _, want := range c.want {
			if !strings.Contains(errOut, want) {
				t.Errorf("%v: stderr %q does not mention %s", c.args, errOut, want)
			}
		}
	}
}
