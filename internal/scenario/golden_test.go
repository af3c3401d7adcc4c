package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden reports from the current tree instead of
// comparing against them:
//
//	go test ./internal/scenario -run TestGoldenReports -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current reports")

const goldenDir = "testdata/golden"

// TestGoldenReports pins every builtin's quick report, byte for byte, to
// testdata/golden/<name>.json: the same bytes its entry in `omxsim sweep
// -quick -json` holds (TestShardCountInvariance replays each on four
// engine shards against the same file). A change that moves any
// reproduced number fails here; if the move is intended, rerun with
// -update and review the golden diff.
func TestGoldenReports(t *testing.T) {
	for _, s := range All() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(goldenDir, s.Name+".json")
			got := scenarioBytes(t, s, Options{Quick: true})
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			goldenDiff(t, path, "shards=1", want, got)
		})
	}
	// A golden whose builtin was renamed or deleted fails too.
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := Get(strings.TrimSuffix(filepath.Base(f), ".json")); !ok {
			t.Errorf("%s: no registered scenario of that name (delete the file)", f)
		}
	}
}

// goldenDiff fails the test when got differs from the golden bytes,
// naming the first differing line.
func goldenDiff(t *testing.T, path, run string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of report>"
	}
	t.Errorf("%s: %s report differs from the golden at line %d:\n  golden: %s\n  got:    %s\nrerun with -update if the change is intended",
		path, run, i+1, line(wl), line(gl))
}
