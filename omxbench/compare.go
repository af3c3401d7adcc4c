package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// verdict is one row of a comparison.
type verdict struct {
	workload, metric, unit string
	base, cur              float64 // medians
	delta                  float64 // share by which cur is worse than base; negative is better
	spread                 float64 // widest quartile spread of either side, as a share of its median
	bound                  *float64
	call                   string
}

func compareMain(stdout, stderr io.Writer, specPath, a, b string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "omxbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "omxbench: %s: %v\n", specPath, err)
		return 2
	}
	base, err := loadResults(a)
	if err == nil {
		var cur []result
		cur, err = loadResults(b)
		if err == nil {
			rows := compare(spec, base, cur)
			printVerdicts(stdout, rows)
			for _, r := range rows {
				if r.call == "worse" {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "omxbench: %v\n", err)
	return 2
}

// loadResults reads a result file, or every result file in a directory.
func loadResults(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// compare judges cur against base for every workload both hold and every
// metric the spec names: one row per workload and metric.
//
// A bounded metric is "worse" or "better" when the medians differ by more
// than its bound, and "unchanged" otherwise, unless the spread of either
// side is wider than the bound: then it is "unresolved", or "better" only
// if every run of cur beats every run of base. A side's spread is the
// quartile distance of its runs' values over their median; a side with a
// single run uses the spread of that run's per-rep samples, where it has
// them. Per-layer metrics carry no bound and read "same" or "moved".
func compare(spec benchSpec, base, cur []result) []verdict {
	byWorkload := func(rs []result) map[string][]result {
		m := make(map[string][]result)
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(cur)
	var names []string
	for n := range bw {
		if _, ok := cw[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var rows []verdict
	for _, n := range names {
		for _, sm := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
			a, sa := values(bw[n], sm.Name)
			b, sb := values(cw[n], sm.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict{workload: n, metric: sm.Name, unit: sm.Unit, bound: sm.Bound,
				base: quantile(a, 0.5), cur: quantile(b, 0.5), spread: math.Max(sa, sb)}
			v.delta = worseBy(sm.Better, v.base, v.cur)
			v.call = judge(v, sm.Better, a, b)
			rows = append(rows, v)
		}
	}
	return rows
}

// values returns one value per run and that side's spread.
func values(rs []result, name string) ([]float64, float64) {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	if len(vs) == 1 {
		// wall_ms.p50 and wall_ms.p75 both spread like the wall_ms samples.
		key, _, _ := strings.Cut(name, ".")
		return vs, spreadOf(rs[0].Samples[key])
	}
	return vs, spreadOf(vs)
}

// spreadOf is the distance between the first and third quartile as a
// share of the median.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := quantile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(med)
}

// worseBy is the share by which cur is worse than base.
func worseBy(better string, base, cur float64) float64 {
	if base == cur {
		return 0
	}
	if base == 0 {
		return math.Copysign(math.Inf(1), cur-base) * sign(better)
	}
	return (cur - base) / math.Abs(base) * sign(better)
}

func sign(better string) float64 {
	if better == "higher" {
		return -1
	}
	return 1
}

func judge(v verdict, better string, a, b []float64) string {
	if v.bound == nil {
		if v.delta == 0 {
			return "same"
		}
		return "moved"
	}
	bound := *v.bound
	if v.spread > bound {
		if len(a) > 1 && len(b) > 1 && allBetter(better, a, b) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case v.delta > bound:
		return "worse"
	case v.delta < -bound:
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(better string, a, b []float64) bool {
	worstB, bestA := b[0], a[0]
	for _, x := range b {
		if worseBy(better, worstB, x) > 0 {
			worstB = x
		}
	}
	for _, x := range a {
		if worseBy(better, bestA, x) < 0 {
			bestA = x
		}
	}
	return worseBy(better, bestA, worstB) < 0
}

func printVerdicts(w io.Writer, rows []verdict) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tspread\tbound\tverdict\t")
	for _, r := range rows {
		bound := "-"
		if r.bound != nil {
			bound = fmt.Sprintf("%.1f%%", *r.bound*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%s\t%s\t\n",
			r.workload, r.metric, r.unit, r.base, r.cur, r.delta*100, r.spread*100, bound, r.call)
	}
	tw.Flush()
}
