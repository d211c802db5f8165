package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Times are
// nanoseconds since the tracer started; Parent is the enclosing span's ID (0
// at the top); spans of one pass or one job share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them, with a CPU profile, when the
// run ends. A nil tracer records nothing, which is the untraced path.
type tracer struct {
	prefix string
	t0     time.Time

	mu    sync.Mutex
	spans []span

	prof *os.File
}

func newTracer(prefix string) *tracer { return &tracer{prefix: prefix, t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, run string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// startProfile starts the CPU profile of the traced pass.
func (t *tracer) startProfile() error {
	f, err := os.Create(t.prefix + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.prof = f
	return nil
}

// stopProfile stops the CPU profile and closes its file.
func (t *tracer) stopProfile() error {
	if t.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := t.prof.Close()
	t.prof = nil
	return err
}

// write saves the spans as JSON lines and a per-name summary of total and
// self time (a span's duration minus the time its child spans cover).
func (t *tracer) write() error {
	if err := t.stopProfile(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(t.prefix + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	type total struct {
		Calls   int     `json:"calls"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	byName := map[string]*total{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(s, children[s.ID])
		tt := byName[s.Name]
		if tt == nil {
			tt = &total{}
			byName[s.Name] = tt
		}
		tt.Calls++
		tt.TotalMS += float64(d) / 1e6
		tt.SelfMS += float64(self) / 1e6
	}
	b, err := json.MarshalIndent(byName, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(t.prefix+".selftime.json", append(b, '\n'), 0o644)
}

// covered returns how many nanoseconds of parent the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		if k.End < 0 {
			continue
		}
		ivs = append(ivs, iv{max(k.Start, parent.Start), min(k.End, parent.End)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach int64 = 0, parent.Start
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			sum += v.b - reach
			reach = v.b
		}
	}
	return sum
}

// runID names pass i of a workload in spans.
func runID(i int) string { return fmt.Sprintf("pass%d", i) }
