package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageLines runs the three usage lines of the package doc and checks
// that each exits 0 and prints what it names.
func TestUsageLines(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-dataset osm -n 100000 -sample 5", "osm: "},
		{"-cdf W1.1 -n 1000000", "W1.1 key-selection CDF"},
		{"-workload W5.1 -ops 20", "W5.1: first 20 operations"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("ahidata %s: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Fatalf("ahidata %s: output lacks %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
}

// TestBadUsage: no mode, an unknown dataset and an unknown workload exit 2
// with a message on stderr and nothing on stdout.
func TestBadUsage(t *testing.T) {
	for _, args := range []string{"", "-dataset nope", "-cdf W9.9", "-workload W9.9"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Fatalf("ahidata %s: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Fatalf("ahidata %s: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}
