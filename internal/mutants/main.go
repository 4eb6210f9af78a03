// Command mutants is the reverted-fix mutant gate (`make mutants`): for
// every mutant in its catalog it compiles the mutant's package with one
// source snippet replaced — through `go test -overlay`, so the tree is
// never touched — runs the named tests, and requires them to fail.
//
// Each mutant re-introduces a bug a past concurrency or layout fix
// removed, so a mutant that survives means the test guarding that fix is
// gone or no longer bites. A mutant that does not compile is reported as
// broken, not killed, and a snippet that no longer occurs exactly once in
// its file fails the run before anything is built: a refactor must carry
// its mutants along (TestCatalogSnippetsApply checks the same in `go test
// ./...`).
//
// Run it from anywhere inside the module:
//
//	go run ./internal/mutants              # the whole catalog
//	go run ./internal/mutants -run spare   # mutants whose name matches
//
// It prints one row per mutant — runs failed of runs made, the first
// failing test, the time taken — and exits 1 unless every mutant was
// killed in at least one of its runs.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// Mutant is one catalog record: a snippet of File replaced by Replace, and
// the tests that must fail.
type Mutant struct {
	// Name says what the mutant breaks; Reverts names the fix it undoes.
	Name, Reverts string
	// File is the module-relative source file; Snippet must occur in it
	// exactly once.
	File, Snippet, Replace string
	// Pkg is the package to test ("./internal/segq"), Run the -run
	// pattern, Runs the number of runs the kill rate is measured over, and
	// Race builds with the race detector.
	Pkg, Run string
	Runs     int
	Race     bool
}

// runTimeout bounds one run (the test binary's -test.timeout), so a
// mutant that wedges a test without a watchdog still fails.
const runTimeout = time.Minute

// Retired is a mutant the code can no longer express, and why.
type Retired struct {
	Name, Why string
}

// outcome is how one mutant fared.
type outcome struct {
	killed, runs int
	firstFail    string // the first failing test's name, or a summary
	broken       string // the build's error output, when it did not compile
	elapsed      time.Duration
}

func main() {
	run := flag.String("run", "", "only mutants whose name matches this regexp")
	flag.Parse()
	if err := gate(*run); err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(1)
	}
}

func gate(pattern string) error {
	sel, err := regexp.Compile(pattern)
	if err != nil {
		return err
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	var todo []Mutant
	for _, m := range catalog {
		if sel.MatchString(m.Name) {
			todo = append(todo, m)
		}
	}
	// Every snippet must still apply before anything is built.
	var stale []string
	for _, m := range todo {
		if _, err := mutate(root, m); err != nil {
			stale = append(stale, err.Error())
		}
	}
	if len(stale) > 0 {
		return fmt.Errorf("stale snippets, carry these mutants along with the code:\n  %s", strings.Join(stale, "\n  "))
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	var killed, survived, broken int
	for i, m := range todo {
		o, err := try(root, filepath.Join(tmp, fmt.Sprint(i)), m)
		if err != nil {
			return fmt.Errorf("%s: %v", m.Name, err)
		}
		verdict := "killed"
		switch {
		case o.broken != "":
			verdict = "BROKEN"
			broken++
		case o.killed == 0:
			verdict = "SURVIVED"
			survived++
		default:
			killed++
		}
		fmt.Printf("%-8s %-36s %d/%d  %6.1fs  %s\n", verdict, m.Name, o.killed, o.runs, o.elapsed.Seconds(), o.firstFail)
		if o.broken != "" {
			fmt.Printf("         build output:\n%s\n", indent(o.broken))
		}
	}
	for _, r := range retired {
		fmt.Printf("%-8s %-36s %s\n", "retired", r.Name, r.Why)
	}
	fmt.Printf("mutants: %d killed, %d survived, %d broken, %d retired in %.0fs\n",
		killed, survived, broken, len(retired), time.Since(start).Seconds())
	if survived+broken > 0 {
		return errors.New("every mutant must compile and be killed")
	}
	return nil
}

// mutate returns the mutant's version of its file, or an error when the
// snippet does not occur exactly once.
func mutate(root string, m Mutant) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", m.Name, err)
	}
	if n := bytes.Count(src, []byte(m.Snippet)); n != 1 {
		return nil, fmt.Errorf("%s: snippet occurs %d times in %s, want exactly once", m.Name, n, m.File)
	}
	return bytes.Replace(src, []byte(m.Snippet), []byte(m.Replace), 1), nil
}

// try builds m's package with the mutant overlaid into dir and runs its
// tests m.Runs times, each run a fresh process.
func try(root, dir string, m Mutant) (o outcome, _ error) {
	start := time.Now()
	defer func() { o.elapsed = time.Since(start) }()
	src, err := mutate(root, m)
	if err != nil {
		return o, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o, err
	}
	file := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(file, src, 0o644); err != nil {
		return o, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, m.File): file}})
	if err != nil {
		return o, err
	}
	ovl := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ovl, overlay, 0o644); err != nil {
		return o, err
	}
	bin := filepath.Join(dir, "mutant.test")
	args := []string{"test", "-c", "-o", bin, "-overlay", ovl}
	if m.Race {
		args = append(args, "-race")
	}
	build := exec.Command("go", append(args, m.Pkg)...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		o.broken = string(out)
		return o, nil
	}
	for r := 0; r < m.Runs; r++ {
		test := exec.Command(bin, "-test.run", m.Run, "-test.count", "1", "-test.failfast",
			"-test.timeout", runTimeout.String())
		test.Dir = filepath.Join(root, m.Pkg) // where `go test` runs a package's tests
		out, err := test.CombinedOutput()
		o.runs++
		if err == nil {
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			return o, err
		}
		o.killed++
		if o.firstFail == "" {
			o.firstFail = firstFailure(out)
		}
	}
	return o, nil
}

var failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)

// firstFailure names the first failing test in a test binary's output, or
// a timeout or panic when no test reported a failure.
func firstFailure(out []byte) string {
	if m := failLine.FindSubmatch(out); m != nil {
		return "by " + string(m[1])
	}
	if bytes.Contains(out, []byte("panic: test timed out")) {
		return "by the test timeout"
	}
	return "by a crash of the test binary"
}

func indent(s string) string {
	return "         " + strings.ReplaceAll(strings.TrimSpace(s), "\n", "\n         ")
}

// moduleRoot returns the directory holding the main module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", errors.New("not inside a module")
	}
	return filepath.Dir(mod), nil
}
