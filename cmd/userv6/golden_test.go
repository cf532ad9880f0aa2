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

// TestAllGolden pins `userv6 -users 2000 all` stdout — every table and
// figure the paper reports, at a small fixed scale — byte for byte.
// The simulator is deterministic at any GOMAXPROCS, so exact equality
// is the bar. Regenerate with
//
//	go test ./cmd/userv6 -run TestAllGolden -update
//
// and review the diff.
func TestAllGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], runAsCLI, "-users", "2000", "all")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("userv6 -users 2000 all: %v\n%s", err, stderr.Bytes())
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("userv6 -users 2000 all differs from %s:\n--- got\n%s--- want\n%s", path, stdout.Bytes(), want)
	}
}
