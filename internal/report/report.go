// Package report renders scenario results as structured data: one Result
// per scenario run, serialisable as JSON for machines or as aligned text
// tables for humans. It replaces the per-binary printf blocks the old cmd/
// tools carried around.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one rectangular block of a result: a title, a header row, and
// string cells (callers format numbers; Cell helpers cover the common
// cases).
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends one row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells[:len(t.Columns)])
}

// Assertion is the outcome of one scenario assertion.
type Assertion struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail,omitempty"`
}

// Case is the flattened record of one (policy, size) cell of a scenario's
// run matrix, with every metric the runner and workload recorded.
type Case struct {
	Label   string             `json:"label"`
	Size    int                `json:"size,omitempty"`
	Policy  string             `json:"policy,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
	// Chaos is the stress-report time series for chaos-profile runs
	// (omitted entirely for ordinary scenarios, keeping their JSON
	// byte-identical to pre-chaos output).
	Chaos *ChaosSeries `json:"chaos,omitempty"`
}

// ChaosInterval is one bucket of a chaos stress report: cluster-wide
// counts of faults injected, recoveries completed, requests aborted, and
// pin/unpin churn within one interval of simulated time.
type ChaosInterval struct {
	Faults     int `json:"faults"`
	Recoveries int `json:"recoveries"`
	Aborts     int `json:"aborts"`
	PinPages   int `json:"pin_pages"`
	UnpinPages int `json:"unpin_pages"`
}

// Add adds o's counts to c.
func (c *ChaosInterval) Add(o ChaosInterval) {
	c.Faults += o.Faults
	c.Recoveries += o.Recoveries
	c.Aborts += o.Aborts
	c.PinPages += o.PinPages
	c.UnpinPages += o.UnpinPages
}

// ChaosSeries is the per-interval stress time series written alongside a
// chaos scenario's metrics (interval i covers
// [i*interval, (i+1)*interval) of simulated time).
type ChaosSeries struct {
	IntervalUS float64         `json:"interval_us"`
	Intervals  []ChaosInterval `json:"intervals"`
}

// Total sums the series' intervals.
func (s *ChaosSeries) Total() ChaosInterval {
	var t ChaosInterval
	for _, iv := range s.Intervals {
		t.Add(iv)
	}
	return t
}

// Result is everything one scenario run produced. It deliberately carries
// no wall-clock timestamps: two runs with the same seed must serialise to
// identical bytes (the determinism tests rely on it).
type Result struct {
	Scenario    string            `json:"scenario"`
	Description string            `json:"description,omitempty"`
	Seed        int64             `json:"seed"`
	Params      map[string]string `json:"params,omitempty"`
	Cases       []Case            `json:"cases,omitempty"`
	Tables      []Table           `json:"tables,omitempty"`
	Assertions  []Assertion       `json:"assertions,omitempty"`
	Passed      bool              `json:"passed"`
	Notes       []string          `json:"notes,omitempty"`
}

// Param records a scenario parameter (size schedule, class, flood level).
func (r *Result) Param(key, value string) {
	if r.Params == nil {
		r.Params = make(map[string]string)
	}
	r.Params[key] = value
}

// AddTable appends a rendered table.
func (r *Result) AddTable(t Table) { r.Tables = append(r.Tables, t) }

// Note appends a free-form remark (shown after the tables).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Failed reports whether any assertion failed.
func (r *Result) Failed() bool {
	for _, a := range r.Assertions {
		if !a.Passed {
			return true
		}
	}
	return false
}

// F formats a float for a table cell with prec decimals.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// E formats a float in scientific notation (miss rates).
func E(v float64) string { return fmt.Sprintf("%.2e", v) }

// D formats an integer cell.
func D(v int64) string { return fmt.Sprintf("%d", v) }

// Pct formats an improvement percentage cell.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Bytes renders a message size with an adaptive unit (4kB, 16MB).
func Bytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%dkB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// WriteJSON emits the results as an indented JSON array (a single object
// when exactly one result is given), suitable for jq-style consumption.
func WriteJSON(w io.Writer, results ...*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if len(results) == 1 {
		return enc.Encode(results[0])
	}
	return enc.Encode(results)
}

// WriteText renders each result as aligned tables with a header, params,
// assertion outcomes, and notes.
func WriteText(w io.Writer, results ...*Result) error {
	for i, r := range results {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := writeOne(w, r); err != nil {
			return err
		}
	}
	return nil
}

func writeOne(w io.Writer, r *Result) error {
	head := fmt.Sprintf("== %s (seed %d) ==", r.Scenario, r.Seed)
	if _, err := fmt.Fprintln(w, head); err != nil {
		return err
	}
	if r.Description != "" {
		fmt.Fprintln(w, r.Description)
	}
	if len(r.Params) > 0 {
		keys := make([]string, 0, len(r.Params))
		for k := range r.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, k+"="+r.Params[k])
		}
		fmt.Fprintln(w, "params:", strings.Join(parts, " "))
	}
	for _, t := range r.Tables {
		fmt.Fprintln(w)
		if err := writeTable(w, t); err != nil {
			return err
		}
	}
	wroteChaos := false
	for _, c := range r.Cases {
		if c.Chaos == nil {
			continue
		}
		if !wroteChaos {
			fmt.Fprintln(w)
			wroteChaos = true
		}
		t := c.Chaos.Total()
		fmt.Fprintf(w, "chaos %s: %d faults, %d recoveries, %d aborts, pin churn +%d/-%d pages over %d x %.0fus intervals\n",
			c.Label, t.Faults, t.Recoveries, t.Aborts, t.PinPages, t.UnpinPages,
			len(c.Chaos.Intervals), c.Chaos.IntervalUS)
	}
	if len(r.Assertions) > 0 {
		fmt.Fprintln(w)
		for _, a := range r.Assertions {
			mark := "PASS"
			if !a.Passed {
				mark = "FAIL"
			}
			line := fmt.Sprintf("[%s] %s", mark, a.Name)
			if a.Detail != "" {
				line += ": " + a.Detail
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return nil
}

// writeTable prints a table with every column padded to its widest cell;
// the first column is left-aligned, the rest right-aligned (numbers).
func writeTable(w io.Writer, t Table) error {
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len([]rune(cell))
			if i == 0 {
				b.WriteString(cell + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + cell)
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}
