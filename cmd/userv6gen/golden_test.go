package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current analyze output")

// runAsCLI is the first argument that makes the test binary behave as
// userv6gen itself: the golden test drives the real command, built with
// the same flags as the test (so under -race too), without a separate
// go build.
const runAsCLI = "-test.run-as-userv6gen"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runAsCLI {
		os.Args = append([]string{"userv6gen"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs userv6gen with args in dir and returns its stdout, failing
// the test on a non-zero exit.
func cli(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runAsCLI}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("userv6gen %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// goldenUsers is the population of the golden inputs: small enough for
// the race detector, large enough to hold heavy users, abusive
// accounts, churn of every cause and multi-user /64s.
const goldenUsers = "3000"

// TestAnalyzeGolden pins `userv6gen analyze` stdout byte for byte over
// a fixed compressed file, the same week as a 4-shard export, the file
// rewritten day-major (each day's records for every user before the
// next day's), and a damaged copy read with -tolerant — each at one
// worker (sequential) and two (fused). The simulator is deterministic,
// so exact equality is the bar. Regenerate with
//
//	go test ./cmd/userv6gen -run TestAnalyzeGolden -update
//
// and review the diff.
func TestAnalyzeGolden(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "gen", "-users", goldenUsers, "-seed", "7", "-compress=auto", "-o", "week.uv6")
	cli(t, dir, "gen", "-users", goldenUsers, "-seed", "7", "-shards", "4", "-o", "export")
	writeDayMajor(t, filepath.Join(dir, "week.uv6"), filepath.Join(dir, "daymajor.uv6"))

	raw, err := os.ReadFile(filepath.Join(dir, "week.uv6"))
	if err != nil {
		t.Fatal(err)
	}
	// 0xff rather than 0x00: much of the payload is already zero.
	raw[len(raw)/2] = 0xff
	if err := os.WriteFile(filepath.Join(dir, "damaged.uv6"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"analyze_file.golden", []string{"week.uv6"}},
		{"analyze_file.golden", []string{"daymajor.uv6"}},
		{"analyze_export.golden", []string{"export"}},
		{"analyze_damaged_tolerant.golden", []string{"-tolerant", "damaged.uv6"}},
	} {
		path := filepath.Join("testdata", tc.golden)
		for _, workers := range []string{"1", "2"} {
			args := append([]string{"analyze", "-workers", workers}, tc.args...)
			got := cli(t, dir, args...)
			if *update && workers == "1" && tc.args[0] != "daymajor.uv6" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("userv6gen %v differs from %s:\n--- got\n%s--- want\n%s", args, path, got, want)
			}
		}
	}
}

// writeDayMajor rewrites the dataset at src into dst with every record
// stably sorted by day, keeping the header metadata. Generators write
// each benign user's days together, so this is the order that defeats
// any per-user locality an analyzer exploits.
func writeDayMajor(t *testing.T, src, dst string) {
	t.Helper()
	r, err := dataset.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var obs []telemetry.Observation
	if err := r.ForEach(func(o telemetry.Observation) { obs = append(obs, o) }); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].Day < obs[j].Day })
	w, err := dataset.Create(dst, r.Meta())
	if err != nil {
		t.Fatal(err)
	}
	emit, errp := w.Emit()
	for _, o := range obs {
		emit(o)
	}
	if *errp != nil {
		t.Fatal(*errp)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
