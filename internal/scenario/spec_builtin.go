// spec_builtin.go — the builtins that ship as specs. The pingpong,
// figure6, fleet-stream, pressure-*, chaos-*, and kvserve-* scenarios
// register from the YAML documents embedded under specs/, exercising the
// spec loader on every program start. Like every builtin, each one's quick report is pinned
// byte for byte to testdata/golden/<name>.json, at one engine and at four
// shards (TestGoldenReports).
package scenario

import (
	"embed"
	"fmt"
)

//go:embed specs/*.yaml
var builtinSpecFS embed.FS

func init() {
	entries, err := builtinSpecFS.ReadDir("specs")
	if err != nil {
		panic(fmt.Sprintf("scenario: embedded specs: %v", err))
	}
	for _, e := range entries {
		path := "specs/" + e.Name()
		data, err := builtinSpecFS.ReadFile(path)
		if err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", path, err))
		}
		s, err := LoadSpecData(data, path)
		if err != nil {
			panic(fmt.Sprintf("scenario: embedded spec %s: %v", path, err))
		}
		s.Source = SourceBuiltinSpec
		MustRegister(s)
	}
}
