package main

import (
	"bytes"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "digest-n4", "--seconds", "0"},
		{"--workload", "digest-n4", "--trace", "2"},
		{"--no-such-flag"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != exitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, exitUsage)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}
