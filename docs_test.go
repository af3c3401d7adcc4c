package omxsim

// The documentation checks behind CI's docs job: every relative
// markdown link resolves, the README's scenario table matches the
// registry (`omxsim list -markdown`), and the authoring guide lists every
// automatic stats.* metric. Run with:
//
//	go test -run TestDocs .

import (
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"omxsim/internal/scenario"
)

// docFiles returns every tracked markdown file at the repo root and
// under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; is the test running at the repo root?")
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinks checks that every relative link in the markdown docs
// points at a file or directory that exists.
func TestDocsLinks(t *testing.T) {
	for _, f := range docFiles(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%s does not exist)", f, m[1], resolved)
			}
		}
	}
}

const (
	tableBegin = "<!-- BEGIN SCENARIO TABLE"
	tableEnd   = "<!-- END SCENARIO TABLE -->"
)

// TestDocsScenarioTable checks that the README's generated scenario
// table is in sync with the registry. Regenerate with:
//
//	go run ./cmd/omxsim list -markdown
func TestDocsScenarioTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	begin := strings.Index(s, tableBegin)
	end := strings.Index(s, tableEnd)
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("README.md is missing the scenario-table markers (%q ... %q)", tableBegin, tableEnd)
	}
	block := s[begin:end]
	// Drop the marker line itself; what remains must equal the generator's
	// output exactly.
	if nl := strings.Index(block, "\n"); nl >= 0 {
		block = block[nl+1:]
	}
	want := scenario.MarkdownTable()
	if block != want {
		t.Errorf("README scenario table is stale; regenerate with `go run ./cmd/omxsim list -markdown`\n--- README ---\n%s\n--- registry ---\n%s", block, want)
	}
}

// TestDocsExampleSpecs validates every shipped spec file the docs point
// at — the same strict check CI runs as `omxsim validate examples/*.yaml`.
func TestDocsExampleSpecs(t *testing.T) {
	files, err := filepath.Glob("examples/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example specs found under examples/")
	}
	for _, f := range files {
		if _, err := scenario.ValidateSpecFile(f); err != nil {
			t.Errorf("%s does not validate: %v", f, err)
		}
	}
}

// TestDocsRequiredFiles pins the documentation surface this repo
// promises: the paper map, the architecture guide, the authoring guide,
// and their links from the README.
func TestDocsRequiredFiles(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"PAPER.md", "ARCHITECTURE.md", "docs/scenario-authoring.md", "PERFORMANCE.md"} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("required doc %s missing", f)
		}
		if !strings.Contains(string(readme), f) {
			t.Errorf("README.md does not link %s", f)
		}
	}
}

// TestDocsStatsMetrics checks that docs/scenario-authoring.md lists, in
// its automatic-metrics tables, every stats.* metric a cell records: each
// `stat`-tagged counter field and the runner's own values, read off a
// quickstart report.
func TestDocsStatsMetrics(t *testing.T) {
	data, err := os.ReadFile("docs/scenario-authoring.md")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := scenario.Get("quickstart")
	if !ok {
		t.Fatal("quickstart is not registered")
	}
	res, err := s.Run(scenario.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Cases[0].Metrics)) {
		if strings.HasPrefix(name, "stats.") && !strings.Contains(string(data), "\n| `"+name+"` |") {
			t.Errorf("docs/scenario-authoring.md does not list %s in its automatic stats.* tables", name)
		}
	}
}
