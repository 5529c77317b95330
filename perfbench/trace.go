package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one cell or job share a
// group id; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Group  int    `json:"group"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so the untraced paths share the code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: hostNow()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, group, parent int) int {
	if t == nil {
		return -1
	}
	at := hostNow().Sub(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent, Start: at, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := hostNow().Sub(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, group, parent int, fn func()) {
	id := t.begin(name, group, parent)
	defer t.end(id)
	fn()
}

// selfNanos returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func (t *tracer) selfNanos() []int64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)})
		}
		slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time (ns) and counts spans per key, the key
// being whatever label returns for a span (its name, or name and mode).
func (t *tracer) selfByName(label func(s span) string) (ns map[string]int64, count map[string]int) {
	self := t.selfNanos()
	ns, count = make(map[string]int64), make(map[string]int)
	for i, s := range t.spans {
		k := label(s)
		ns[k] += self[i]
		count[k]++
	}
	return ns, count
}

// selfTable is the per-span-name self-time summary printed with a
// traced run.
func (t *tracer) selfTable() []string {
	ns, count := t.selfByName(func(s span) string { return s.Name })
	names := make([]string, 0, len(ns))
	for n := range ns {
		names = append(names, n)
	}
	slices.Sort(names)
	lines := make([]string, 0, len(names))
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("span %-18s self %10.3f ms over %d spans", n, float64(ns[n])/1e6, count[n]))
	}
	return lines
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
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
	return f.Close()
}

// selfFracLayers are the packages whose share of profile self time the
// traced run reports.
var selfFracLayers = []string{"core", "runahead", "frontend", "rename", "cache", "mem", "prefetch", "dram", "workload", "exp", "serve", "runtime"}

// profiler records a CPU profile of the traced run.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layerSelfFrac aggregates the profile's flat (self) time by layer from
// `go tool pprof -top` text output, returning each layer's share of all
// samples and the printed per-layer table.
func layerSelfFrac(path string) (map[string]float64, []string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-symbolize=none", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := make(map[string]time.Duration)
	var total time.Duration
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("go tool pprof: bad flat value in %q: %w", line, err)
		}
		flat[layerOf(strings.Join(fields[5:], " "))] += d
		total += d
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("go tool pprof: profile %s has no samples", path)
	}
	fracs := make(map[string]float64, len(flat))
	names := make([]string, 0, len(flat))
	for l, d := range flat {
		fracs[l] = float64(d) / float64(total)
		names = append(names, l)
	}
	slices.Sort(names)
	lines := make([]string, 0, len(names))
	for _, l := range names {
		lines = append(lines, fmt.Sprintf("profile %-10s self %8.2f%% (%v of %v)", l, 100*fracs[l], flat[l], total))
	}
	return fracs, lines, nil
}

// layerOf maps a profiled function name to its layer: the first path
// element under repro/internal (so workload/synth counts as workload,
// exp/pool as exp and serve/cache as serve), "runtime" for the Go
// runtime, and "other" for everything else.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
