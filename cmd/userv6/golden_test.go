package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current `userv6 all` output")

// runAsCLI is the first argument that makes the test binary behave as
// userv6 itself, so the golden test drives the real command, built with
// the same flags as the test, without a separate go build.
const runAsCLI = "-test.run-as-userv6"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runAsCLI {
		os.Args = append([]string{"userv6"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs userv6 with args, adding env to the child's
// environment, and returns its stdout.
func runCLI(t *testing.T, env []string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runAsCLI}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("userv6 %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// TestAllGolden pins `userv6 -users 2000 all` stdout — every table and
// figure the paper reports, at a small fixed scale — byte for byte, at
// the default GOMAXPROCS and at GOMAXPROCS=1 (the shared pass runs one
// goroutine per analyzer, so this also pins that their scheduling does
// not reach the output). Regenerate with
//
//	go test ./cmd/userv6 -run TestAllGolden -update
//
// and review the diff.
func TestAllGolden(t *testing.T) {
	path := filepath.Join("testdata", "all.golden")
	for _, env := range [][]string{nil, {"GOMAXPROCS=1"}} {
		got := runCLI(t, env, "-users", "2000", "all")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("userv6 -users 2000 all (env %v) differs from %s:\n--- got\n%s--- want\n%s", env, path, got, want)
		}
	}
}

// TestExperimentGoldenParity runs every experiment on its own and
// checks its stdout below the header line against that experiment's
// section of all.golden: a study holding one experiment's registrations
// computes what the shared run of every experiment computes.
func TestExperimentGoldenParity(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	heads := make([][]byte, len(experiments))
	for i, e := range experiments {
		heads[i] = []byte("== " + e.name + ": " + e.desc + " ==\n")
	}
	for i, e := range experiments {
		start := bytes.Index(golden, heads[i])
		end := len(golden)
		if i+1 < len(experiments) {
			end = bytes.Index(golden, heads[i+1])
		}
		if start < 0 || end < start {
			t.Fatalf("all.golden has no section for %s in table order", e.name)
		}
		// A section is the experiment's output and the blank line `all`
		// prints after it.
		want := bytes.TrimSuffix(golden[start+len(heads[i]):end], []byte("\n"))
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			out := runCLI(t, nil, "-users", "2000", e.name)
			header, got, ok := bytes.Cut(out, []byte("\n\n"))
			if !ok || !bytes.HasPrefix(header, []byte("# userv6: 2000 users")) {
				t.Fatalf("userv6 %s: no header line:\n%s", e.name, out)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("userv6 -users 2000 %s differs from its all.golden section:\n--- got\n%s--- want\n%s", e.name, got, want)
			}
		})
	}
}
