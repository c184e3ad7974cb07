package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alamr/internal/engine"
)

// runCheck runs one check on a fresh problem list and returns what it
// reported.
func runCheck(t *testing.T, check func()) []string {
	t.Helper()
	problems = nil
	check()
	got := problems
	problems = nil
	return got
}

// writeFixture writes files (path relative to a new temp dir → content)
// and makes that dir the working directory, as docs-check runs from the
// repository root.
func writeFixture(t *testing.T, files map[string]string) {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func wantProblems(t *testing.T, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n  got  %q\n  want %q", got, want)
	}
}

// TestCheckSpecs: a spec that parses but is not byte-for-byte in canonical
// form is reported by name; a canonical one is not.
func TestCheckSpecs(t *testing.T) {
	spec, err := engine.ParseCampaignSpec([]byte(
		`{"version":1,"name":"fixture","mode":"replay","policy":{"name":"maxsigma"},"seed":1,"max_iterations":3,"replay":{"n_init":8,"n_test":20}}`))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	writeFixture(t, map[string]string{"examples/specs/good.json": string(canon)})
	wantProblems(t, runCheck(t, checkSpecs), nil)

	writeFixture(t, map[string]string{
		"examples/specs/good.json": string(canon),
		"examples/specs/bad.json":  " " + string(canon),
	})
	wantProblems(t, runCheck(t, checkSpecs), []string{
		"examples/specs/bad.json: not in canonical form (re-save it with engine.Marshal)",
	})
}

// TestCheckMetricNames: a doc line citing an alamr_ name the catalog does
// not declare is reported once, with its line; cataloged names and
// family-prefix prose are not.
func TestCheckMetricNames(t *testing.T) {
	catalog := "package obs\n\nconst MetricKnown = \"alamr_known_total\"\n"
	clean := "Watch alamr_known_total.\nThe alamr_serve_ series are per tenant.\n"
	writeFixture(t, map[string]string{"internal/obs/names.go": catalog, "DOC.md": clean})
	wantProblems(t, runCheck(t, func() { checkMetricNames([]string{"DOC.md"}) }), nil)

	writeFixture(t, map[string]string{
		"internal/obs/names.go": catalog,
		"DOC.md":                clean + "Alert on alamr_bogus_total.\nAgain alamr_bogus_total.\n",
	})
	wantProblems(t, runCheck(t, func() { checkMetricNames([]string{"DOC.md"}) }), []string{
		"DOC.md:3: metric alamr_bogus_total is not in the obs catalog (internal/obs/names.go)",
	})
}

// TestDocCommandFlags: a documented command line using a flag the
// command's flag set lacks is reported, continuation lines joined; flags
// the set defines are not.
func TestDocCommandFlags(t *testing.T) {
	flagSets := map[string]map[string]bool{"al-run": {"data": true, "policy": true, "h": true, "help": true}}
	clean := "```sh\ngo run ./cmd/al-run -data ds.csv \\\n    -policy rgma\n```\n"
	writeFixture(t, map[string]string{"README.md": clean})
	wantProblems(t, runCheck(t, func() { docCommandFlags("README.md", []string{"al-run"}, flagSets) }), nil)

	writeFixture(t, map[string]string{"README.md": clean + "Then `al-run -data ds.csv -bogus 3`.\n"})
	wantProblems(t, runCheck(t, func() { docCommandFlags("README.md", []string{"al-run"}, flagSets) }), []string{
		`README.md:4: al-run has no -bogus flag (line: "Then ` + "`al-run -data ds.csv -bogus 3`" + `.")`,
	})
}
