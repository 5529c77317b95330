package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// catalogJSON is the benchmark's single metric catalogue: names, units,
// directions and bounds, plus what the contract-shaped BENCHMARK.json
// cannot hold (layer, the end-to-end metric each layer metric should
// move, where it is measured, definitions and dropped metrics).
//
//go:embed metrics.json
var catalogJSON []byte

type catalog struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDoc   `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name          string   `json:"name"`
	Unit          string   `json:"unit"`
	Better        string   `json:"better"`
	Bound         float64  `json:"bound"`
	Deterministic bool     `json:"deterministic"`
	Expand        []string `json:"expand"`
	MeasuredOn    []string `json:"measured_on"`
}

// metricSpec is one expanded metric as the benchmark prints it.
type metricSpec struct {
	name, unit    string
	deterministic bool
	measuredOn    []string // nil for end-to-end metrics (measured everywhere)
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("metric catalogue: %w", err)
	}
	return &c, nil
}

// expand returns the printed metrics of docs in catalogue order; a doc
// with an expand list yields one metric per suffix.
func expand(docs []metricDoc) []metricSpec {
	var out []metricSpec
	for _, d := range docs {
		suffixes := d.Expand
		if len(suffixes) == 0 {
			suffixes = []string{""}
		}
		for _, s := range suffixes {
			name := d.Name
			if s != "" {
				name += "." + s
			}
			out = append(out, metricSpec{name: name, unit: d.Unit, deterministic: d.Deterministic, measuredOn: d.MeasuredOn})
		}
	}
	return out
}

// metrics returns the metrics a run prints: every end-to-end metric
// untraced, every per-layer metric traced.
func (c *catalog) metrics(traced bool) []metricSpec {
	if traced {
		return expand(c.PerLayer)
	}
	return expand(c.EndToEnd)
}

func (c *catalog) hasWorkload(name string) bool {
	return slices.ContainsFunc(c.Workloads, func(w workloadDoc) bool { return w.Name == name })
}

// benchmarkJSON renders the contract-shaped BENCHMARK.json.
func (c *catalog) benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{Command: c.Command, Paths: c.Paths, RunSeconds: c.RunSeconds, Workloads: c.Workloads}
	for _, d := range c.EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range c.PerLayer {
		for _, m := range expand([]metricDoc{d}) {
			doc.PerLayer = append(doc.PerLayer, layer{m.name, d.Unit, d.Better})
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sample records a measured value and the number of samples behind it,
// for the human-readable report.
type sample struct {
	v float64
	n int
}

// report holds one run's measured metrics and explanatory lines.
type report struct {
	vals  map[string]sample
	notes []string
}

func newReport() *report { return &report{vals: make(map[string]sample)} }

func (r *report) set(name string, v float64, n int) { r.vals[name] = sample{v, n} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, one line per metric in catalogue order, and
// finally the one-line JSON result. A metric the workload measures but
// did not set is a bug in the benchmark and fails the run; a metric of a
// layer the workload does not drive reads 0.
func (r *report) write(w io.Writer, specs []metricSpec, workload string, attempted, failed int) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metricOut, len(specs))
	for _, s := range specs {
		got, ok := r.vals[s.name]
		if !ok {
			if s.measuredOn == nil || slices.Contains(s.measuredOn, workload) {
				return fmt.Errorf("metric %s was not measured", s.name)
			}
		}
		if math.IsNaN(got.v) || math.IsInf(got.v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, got.v)
		}
		fmt.Fprintf(w, "%-40s %16s %-10s n=%d\n", s.name, strconv.FormatFloat(got.v, 'g', 8, 64), s.unit, got.n)
		out[s.name] = metricOut{got.v, s.unit}
	}
	fmt.Fprintf(w, "failed_ratio %s (%d failed / %d attempted)\n",
		strconv.FormatFloat(stats.Ratio(float64(failed), float64(attempted)), 'g', 6, 64), failed, attempted)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// modeSuffix maps a mechanism name to its metric-name suffix ("+" is
// not allowed in metric names).
func modeSuffix(mode string) string { return strings.ReplaceAll(mode, "+", "-") }
