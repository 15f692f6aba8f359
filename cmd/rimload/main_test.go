package main

// The -self path boots the whole serving stack in-process, so this test
// exercises the real rig end to end: Poisson dispatch, pipelined wire
// traffic over loopback TCP, and latency collection.

import (
	"strings"
	"testing"
)

func TestRimloadSelfSmoke(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{
		"-self", "-profile", "smoke",
		"-duration", "300ms", "-rate", "5000", "-n", "128", "-conns", "2",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("rimload exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	s := out.String()
	for _, want := range []string{"completed", "p50=", "p99=", "p999="} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRimloadUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-profile", "nope", "-self"}, &out, &errb); code != 2 {
		t.Fatalf("unknown profile: exit %d, want 2", code)
	}
	if code := run([]string{"-profile", "smoke"}, &out, &errb); code != 2 {
		t.Fatalf("no addr and no -self: exit %d, want 2", code)
	}
}
