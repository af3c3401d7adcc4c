package scenario

import (
	"fmt"
	"strings"
)

// PolicyLabels returns the scenario's distinct case labels in matrix
// order — the values `-policy` accepts for it. Scenarios without a case
// matrix run the single default case.
func (s *Scenario) PolicyLabels() []string {
	if len(s.Cases) == 0 {
		return []string{defaultCase().Label}
	}
	seen := make(map[string]bool, len(s.Cases))
	var out []string
	for _, c := range s.Cases {
		if !seen[c.Label] {
			seen[c.Label] = true
			out = append(out, c.Label)
		}
	}
	return out
}

// MarkdownTable renders the registry as a GitHub-flavored markdown table
// — the source of truth for the README's scenario section (`omxsim list
// -markdown` regenerates it; the docs CI check keeps the two in sync).
func MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| scenario | source | policies | description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, s := range All() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", s.Name, s.Source, strings.Join(s.PolicyLabels(), ", "), s.Description)
	}
	return b.String()
}
