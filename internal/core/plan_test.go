package core

import (
	"runtime"
	"strings"
	"testing"
)

func TestPlanModeSelection(t *testing.T) {
	cases := []struct {
		name    string
		in      PlanInput
		want    Mode
		workers int // 0 = GOMAXPROCS expected
	}{
		{"auto one worker", PlanInput{Workers: 1}, ModeSequential, 1},
		{"auto commutative", PlanInput{Workers: 4}, ModeFused, 4},
		{"auto default workers", PlanInput{}, ModeFused, 0},
		{"negative workers", PlanInput{Workers: -1}, ModeFused, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlan(tc.in)
			if p.Mode != tc.want {
				t.Fatalf("mode %v, want %v (why: %s)", p.Mode, tc.want, p.Why)
			}
			wantWorkers := tc.workers
			if wantWorkers == 0 {
				wantWorkers = runtime.GOMAXPROCS(0)
			}
			if p.Workers != wantWorkers {
				t.Fatalf("workers %d, want %d", p.Workers, wantWorkers)
			}
			if p.Why == "" {
				t.Fatal("plan has no rationale")
			}
		})
	}
}

func TestPlanExplain(t *testing.T) {
	ex := NewPlan(PlanInput{Workers: 3, Tolerant: true, Parts: 4}).Explain()
	for _, want := range []string{"mode=fused", "workers=3", "parts=4", "tolerant"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain() = %q, missing %q", ex, want)
		}
	}
}
