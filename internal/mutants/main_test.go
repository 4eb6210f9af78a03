package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogSnippetsApply fails as soon as a refactor moves code out from
// under a mutant: every snippet must still occur exactly once in its file,
// and every record must name a package and tests to run.
func TestCatalogSnippetsApply(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range catalog {
		if names[m.Name] {
			t.Errorf("%s: duplicate name", m.Name)
		}
		names[m.Name] = true
		if m.Pkg == "" || m.Run == "" || m.Runs < 1 || m.Reverts == "" {
			t.Errorf("%s: incomplete record %+v", m.Name, m)
		}
		if m.Snippet == m.Replace {
			t.Errorf("%s: the replacement equals the snippet", m.Name)
		}
		if _, err := mutate(root, m); err != nil {
			t.Error(err)
		}
	}
}

// TestMutateRefusesStaleSnippets: a snippet that is missing, or occurs more
// than once, is an error rather than a silently unmutated build.
func TestMutateRefusesStaleSnippets(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte("a\nb\na\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for snippet, want := range map[string]string{"c\n": "occurs 0 times", "a\n": "occurs 2 times"} {
		_, err := mutate(dir, Mutant{Name: "m", File: "f.go", Snippet: snippet, Replace: "x\n"})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("snippet %q: error %v, want one that says %q", snippet, err, want)
		}
	}
	got, err := mutate(dir, Mutant{Name: "m", File: "f.go", Snippet: "b\n", Replace: "x\n"})
	if err != nil || string(got) != "a\nx\na\n" {
		t.Errorf("mutate = %q, %v; want %q", got, err, "a\nx\na\n")
	}
}

// TestBrokenMutantIsNotAKill: a mutant that does not compile is reported
// broken, never counted as killed.
func TestBrokenMutantIsNotAKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a package")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	m := Mutant{
		Name: "syntax error", File: "internal/mutants/catalog.go",
		Snippet: "var catalog = []Mutant{\n", Replace: "var catalog = []Mutant{{{\n",
		Pkg: "./internal/mutants", Run: "TestCatalogSnippetsApply$", Runs: 1,
	}
	o, err := try(root, t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	if o.broken == "" || o.killed != 0 || o.runs != 0 {
		t.Fatalf("outcome %+v, want broken with no runs", o)
	}
}
