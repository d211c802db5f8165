// benchcheck gates benchmark results against the checked-in baseline.
//
// It reads `go test -bench` output (stdin by default) and compares every
// EngineTick and SnapshotRestore sub-benchmark against the "after" numbers
// recorded in BENCH_tick.json, failing when a gated metric drifts outside
// the tolerance band. Baseline entries with "gate": false are reported but
// never enforced (the idle number is an O(1) fast-forward measured in
// fractions of a nanosecond — pure environment noise).
//
// Usage:
//
//	go test ./internal/engine -run xxx -bench EngineTick -benchtime 200000x \
//	    | go run ./cmd/benchcheck -baseline BENCH_tick.json
//	go test ./internal/engine -run xxx -bench SnapshotRestore -benchtime 20x \
//	    | go run ./cmd/benchcheck -baseline BENCH_tick.json
//
// Each invocation gates only the baseline families present in its input; a
// family whose baseline entries have no measurements at all is an error only
// when no other family matched (so the two commands above can run and gate
// independently), but a partially measured family is always an error.
//
// A failure means either a real regression (fix it) or an intentional
// performance change (regenerate the baseline with the commands recorded in
// the file's "how" section and commit the new numbers alongside the change).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baselineEntry struct {
	After float64 `json:"after"`
	Gate  *bool   `json:"gate"`
	Note  string  `json:"note"`
}

type baseline struct {
	EngineTick      map[string]baselineEntry `json:"engine_tick_ns_per_cycle"`
	SnapshotRestore map[string]baselineEntry `json:"snapshot_restore_ns_per_op"`
}

// benchLine matches one result line of `go test -bench` output for the two
// gated benchmark families, e.g.
//
//	BenchmarkEngineTick/sparse-2sm-8       200000     184.7 ns/op
//	BenchmarkSnapshotRestore/snapshot-8        20   41234567 ns/op
//
// The trailing -N is the GOMAXPROCS suffix, omitted when it is 1.
var benchLine = regexp.MustCompile(`^Benchmark(EngineTick|SnapshotRestore)/(\S+?)(-\d+)?\s+\d+\s+([0-9.eE+-]+) ns/op`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_tick.json", "baseline JSON file")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional drift from the baseline")
	in := flag.String("in", "-", "benchmark output to read ('-' for stdin)")
	flag.Parse()

	if err := run(*baselinePath, *in, *tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
}

func run(baselinePath, in string, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if len(base.EngineTick) == 0 {
		return fmt.Errorf("%s: no engine_tick_ns_per_cycle entries", baselinePath)
	}

	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	measured, err := parseBench(src)
	if err != nil {
		return err
	}
	return gate(os.Stdout, base, measured, tolerance, baselinePath)
}

// gate compares every measured family against its baseline. Each family's
// table is printed even when an earlier family failed, so one CI log shows
// every drift; the first family's error is returned.
func gate(w io.Writer, base baseline, measured map[string]map[string]float64, tolerance float64, baselinePath string) error {
	families := []struct {
		name string
		base map[string]baselineEntry
	}{
		{"EngineTick", base.EngineTick},
		{"SnapshotRestore", base.SnapshotRestore},
	}
	matched := 0
	var first error
	for _, fam := range families {
		got := measured[fam.name]
		if len(got) == 0 {
			continue
		}
		matched++
		fmt.Fprintf(w, "— %s —\n", fam.name)
		if err := compare(w, fam.base, got, tolerance, baselinePath); err != nil {
			fmt.Fprintf(w, "%s: %v\n", fam.name, err)
			if first == nil {
				first = fmt.Errorf("%s: %w", fam.name, err)
			}
		}
	}
	if matched == 0 {
		return fmt.Errorf("no BenchmarkEngineTick or BenchmarkSnapshotRestore results in input")
	}
	return first
}

// compare reports every measured sub-benchmark against the baseline. Gated
// entries outside the tolerance band fail; "gate": false entries print an
// UNGATED line so unenforced metrics stay visible in CI logs instead of
// being silently skipped; a baseline entry whose benchmark no longer exists
// in the input is an error (a renamed or deleted benchmark must take its
// baseline entry with it).
func compare(w io.Writer, base map[string]baselineEntry, measured map[string]float64, tolerance float64, baselinePath string) error {
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	for _, name := range names {
		got := measured[name]
		entry, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "%-12s %10.4f ns/op  (no baseline entry — add one to %s)\n", name, got, baselinePath)
			continue
		}
		gated := entry.Gate == nil || *entry.Gate
		drift := got/entry.After - 1
		status := "ok"
		if !gated {
			status = "UNGATED"
		} else if drift > tolerance || drift < -tolerance {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%-12s %10.4f ns/op  baseline %10.4f  drift %+6.1f%%  %s\n",
			name, got, entry.After, drift*100, status)
	}
	var missing []string
	for name := range base {
		if _, ok := measured[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("baseline metric(s) %s missing from benchmark output; remove stale entries from %s or restore the benchmark",
			strings.Join(missing, ", "), baselinePath)
	}
	if failures > 0 {
		return fmt.Errorf("%d metric(s) outside the ±%.0f%% band; if intentional, regenerate %s (see its \"how\" section)",
			failures, tolerance*100, baselinePath)
	}
	return nil
}

func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		if out[m[1]] == nil {
			out[m[1]] = map[string]float64{}
		}
		out[m[1]][m[2]] = v
	}
	return out, sc.Err()
}
