package main

import (
	"strings"
	"testing"
)

func boolPtr(b bool) *bool { return &b }

func TestCompareUngatedIsPrintedNotEnforced(t *testing.T) {
	base := map[string]baselineEntry{
		"idle":      {After: 1.0, Gate: boolPtr(false)},
		"saturated": {After: 100.0},
	}
	measured := map[string]float64{
		"idle":      50.0, // 50x drift, but ungated
		"saturated": 101.0,
	}
	var out strings.Builder
	if err := compare(&out, base, measured, 0.25, "BENCH_tick.json"); err != nil {
		t.Fatalf("ungated drift must not fail: %v", err)
	}
	if !strings.Contains(out.String(), "UNGATED") {
		t.Errorf("gate:false entry must print an UNGATED line, got:\n%s", out.String())
	}
}

func TestCompareGatedDriftFails(t *testing.T) {
	base := map[string]baselineEntry{"saturated": {After: 100.0}}
	measured := map[string]float64{"saturated": 200.0}
	var out strings.Builder
	err := compare(&out, base, measured, 0.25, "BENCH_tick.json")
	if err == nil {
		t.Fatal("a 2x regression on a gated metric must fail")
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("want a FAIL line, got:\n%s", out.String())
	}
}

func TestCompareMissingBenchmarksAllReported(t *testing.T) {
	base := map[string]baselineEntry{
		"saturated": {After: 100.0},
		"gone-b":    {After: 1.0},
		"gone-a":    {After: 1.0, Gate: boolPtr(false)},
	}
	measured := map[string]float64{"saturated": 100.0}
	var out strings.Builder
	err := compare(&out, base, measured, 0.25, "BENCH_tick.json")
	if err == nil {
		t.Fatal("baseline entries naming vanished benchmarks must fail")
	}
	msg := err.Error()
	// Every stale entry is listed, in sorted order, gated or not.
	if !strings.Contains(msg, "gone-a, gone-b") {
		t.Errorf("error must list all missing entries sorted, got: %v", err)
	}
}

func TestParseBench(t *testing.T) {
	in := strings.NewReader(`goos: linux
BenchmarkEngineTick/idle-8         	200000	         0.5 ns/op
BenchmarkEngineTick/saturated      	200000	       184.7 ns/op
BenchmarkSnapshotRestore/snapshot-8	      20	  16300000 ns/op
PASS
`)
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	tick := got["EngineTick"]
	if tick["idle"] != 0.5 || tick["saturated"] != 184.7 {
		t.Errorf("parseBench EngineTick = %v", tick)
	}
	if got["SnapshotRestore"]["snapshot"] != 16300000 {
		t.Errorf("parseBench SnapshotRestore = %v", got["SnapshotRestore"])
	}
}

// TestGateReportsEveryFamily pins that a failing family does not hide the
// ones after it: both tables print, and the first family's error returns.
func TestGateReportsEveryFamily(t *testing.T) {
	base := baseline{
		EngineTick:      map[string]baselineEntry{"saturated": {After: 100.0}},
		SnapshotRestore: map[string]baselineEntry{"snapshot": {After: 10.0}},
	}
	measured := map[string]map[string]float64{
		"EngineTick":      {"saturated": 300.0},
		"SnapshotRestore": {"snapshot": 10.5},
	}
	var out strings.Builder
	err := gate(&out, base, measured, 0.25, "BENCH_tick.json")
	if err == nil || !strings.HasPrefix(err.Error(), "EngineTick: ") {
		t.Fatalf("want the EngineTick failure, got %v", err)
	}
	for _, want := range []string{"— EngineTick —", "— SnapshotRestore —", "snapshot"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output is missing %q:\n%s", want, out.String())
		}
	}
}
