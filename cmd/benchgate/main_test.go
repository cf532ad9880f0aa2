package main

import (
	"strings"
	"testing"
)

// A benchmark repeated by -count=N is gated on the median of its
// samples, not on whichever line came last.
func TestParseRepeatedLinesMedian(t *testing.T) {
	out := `goos: linux
BenchmarkA-2   	       1	  900 ns/op
BenchmarkB     	       1	  50 ns/op	  12 B/op
BenchmarkA-2   	       1	  300 ns/op
BenchmarkA-2   	       1	  100 ns/op
BenchmarkB     	       1	  70 ns/op	  12 B/op
PASS
ok  	userv6	1.0s
`
	f, bad, err := parse(strings.NewReader(out))
	if err != nil || bad != "" {
		t.Fatalf("parse: bad=%q err=%v", bad, err)
	}
	want := map[string]Result{
		"BenchmarkA": {NsPerOp: 300, Iters: 3}, // median of 900, 300, 100
		"BenchmarkB": {NsPerOp: 60, Iters: 2},  // even count: mean of the middle two
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks %v, want %d", len(f.Benchmarks), f.Benchmarks, len(want))
	}
	for name, w := range want {
		if got := f.Benchmarks[name]; got != w {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
}

func TestParseFailedRun(t *testing.T) {
	out := "BenchmarkA-2 \t 1 \t 100 ns/op\n--- FAIL: BenchmarkB\nFAIL\n"
	f, bad, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if bad == "" {
		t.Fatal("failed run not reported")
	}
	if f.Benchmarks["BenchmarkA"].NsPerOp != 100 {
		t.Fatalf("benchmarks %v", f.Benchmarks)
	}
}
