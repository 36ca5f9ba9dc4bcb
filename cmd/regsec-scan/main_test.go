package main

import (
	"strings"
	"testing"
)

// setOf models "these flags were explicitly passed on the command line".
func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]bool
		want string // substring of the error, "" for accept
	}{
		{"bare scan", setOf(), ""},
		{"plain sweep", setOf("days", "sample", "o", "fault-frac"), ""},
		{"resume with dir", setOf("resume", "checkpoint-dir"), ""},
		{"resume without dir", setOf("resume"), "-resume requires -checkpoint-dir"},
		{"worker minimal", setOf("worker", "checkpoint-dir"), ""},
		{"worker with vantage", setOf("worker", "checkpoint-dir", "name", "fault-profile", "vantage-seed"), ""},
		{"worker with profiling", setOf("worker", "checkpoint-dir", "cpuprofile", "memprofile"), ""},
		{"worker without dir", setOf("worker"), "requires -checkpoint-dir"},
		{"worker with plan flags", setOf("worker", "checkpoint-dir", "days", "sample"), "set them on regsec-sweepd"},
		{"worker with output", setOf("worker", "checkpoint-dir", "o"), "-o"},
		{"worker with resume", setOf("worker", "checkpoint-dir", "resume"), "-resume"},
		{"worker with world cache", setOf("worker", "checkpoint-dir", "world-cache"), "-world-cache"},
		{"name without worker", setOf("name"), "only applies to -worker"},
		{"fault-profile without worker", setOf("fault-profile", "checkpoint-dir"), "only applies to -worker"},
		{"vantage-seed without worker", setOf("vantage-seed"), "only applies to -worker"},
		{"streaming sweep", setOf("chunk", "mem-budget", "spill-dir", "o"), ""},
		{"chunked resume", setOf("chunk", "resume", "checkpoint-dir"), ""},
		{"mem-budget without chunk", setOf("mem-budget"), ""},
		{"spill-dir without chunk", setOf("spill-dir", "o"), ""},
		{"worker with chunk", setOf("worker", "checkpoint-dir", "chunk"), "set them on regsec-sweepd"},
		{"worker with spill-dir", setOf("worker", "checkpoint-dir", "spill-dir"), "does not apply to -worker mode"},
		{"worker with mem-budget", setOf("worker", "checkpoint-dir", "mem-budget"), "does not apply to -worker mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.set)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Every flag name validateFlags special-cases must actually exist, or the
// message would tell the user about a flag that isn't there.
func TestValidateFlagNamesExist(t *testing.T) {
	known := setOf("scale", "seed", "days", "sample", "workers", "o",
		"retries", "resweeps", "fault-frac", "fault-loss", "fault-seed",
		"cache", "dedup", "checkpoint-dir", "resume", "shards",
		"cpuprofile", "memprofile", "worker", "name", "fault-profile",
		"vantage-seed", "world-cache", "chunk", "mem-budget", "spill-dir")
	for _, f := range planFlags {
		if !known[f] {
			t.Errorf("planFlags references unknown flag %q", f)
		}
	}
	for _, f := range workerOnlyFlags {
		if !known[f] {
			t.Errorf("workerOnlyFlags references unknown flag %q", f)
		}
	}
	for _, f := range streamLocalFlags {
		if !known[f] {
			t.Errorf("streamLocalFlags references unknown flag %q", f)
		}
	}
}
