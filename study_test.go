package userv6

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"userv6/internal/core"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// recorder keeps every record a run feeds it, in order.
type recorder struct{ recs []telemetry.Observation }

func (r *recorder) Observe(o telemetry.Observation) { r.recs = append(r.recs, o) }
func (r *recorder) Merge(o *recorder)               { r.recs = append(r.recs, o.recs...) }

// registerAll registers every experiment `userv6 all` runs on st.
func registerAll(st *Study) {
	st.Fig1(0, simtime.StudyDays-1)
	st.Table1(AnalysisWeek())
	st.Table2()
	st.ClientAddrPatterns()
	st.Fig2()
	st.Fig3()
	st.Fig4()
	st.Fig5And6(false)
	st.Fig5And6(true)
	st.IPCentricWeek() // fig7-10
	st.Fig11()
	st.Outliers()
	for _, tol := range []float64{0.0001, 0.001, 0.01} {
		st.Advise(tol)
	}
	st.ComparePandemic()
	st.ChurnReasons()
	st.CountryRatios()
}

// fed runs st with a recorder registered next to its analyzers and
// returns the records the run fed, grouped by stream and day.
func fed(t *testing.T, st *Study) map[[2]int][]telemetry.Observation {
	t.Helper()
	rec := &recorder{}
	core.AddCommutativeAnalyzer(st.set, rec, func() *recorder { return &recorder{} }, (*recorder).Merge)
	if err := st.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return byStreamDay(rec.recs)
}

func byStreamDay(recs []telemetry.Observation) map[[2]int][]telemetry.Observation {
	out := make(map[[2]int][]telemetry.Observation)
	for _, o := range recs {
		k := [2]int{0, int(o.Day)}
		if o.Abusive {
			k[0] = 1
		}
		out[k] = append(out[k], o)
	}
	return out
}

// generated is one generation of each listed day of each stream.
func generated(sim *Sim, benign, abusive []simtime.Day) map[[2]int][]telemetry.Observation {
	var recs []telemetry.Observation
	emit := func(o telemetry.Observation) { recs = append(recs, o) }
	for _, d := range benign {
		sim.Benign.GenerateDay(d, emit)
	}
	for _, d := range abusive {
		sim.Abusive.GenerateDay(d, emit)
	}
	return byStreamDay(recs)
}

func days(from, to simtime.Day) []simtime.Day {
	var out []simtime.Day
	for d := from; d <= to; d++ {
		out = append(out, d)
	}
	return out
}

// TestStudyOnePass checks that `userv6 all` is one pass: every shared
// analyzer is registered once however many experiments read it, and the
// run feeds exactly one generation of each (stream, day) some
// registration needs — every study day of the benign stream, and the
// abusive stream over the 28-day lifespan lookback that covers every
// abusive window.
func TestStudyOnePass(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	st := NewStudy(sim)
	registerAll(st)
	// fig1's Prevalence; the analysis-week Prevalence (table1, table2,
	// fig12) and table2's January one; the analysis-week benign
	// UserCentric (clientaddr, fig2, fig4, outliers, pandemic) and
	// fig2's last-day one; the abusive week and last-day UserCentrics
	// (fig3, fig4); the benign and abusive 28-day Lifespans (fig5,
	// fig6, advise); the eleven IP-centric week analyzers (fig7-10,
	// outliers, advise); the four Actionings (fig11, advise); pandemic's
	// February UserCentric and its two 14-day Lifespans; churn.
	const analyzers = 28
	if n := st.set.Len(); n != analyzers {
		t.Fatalf("all registers %d analyzers, want %d", n, analyzers)
	}
	registerAll(st)
	if n := st.set.Len(); n != analyzers {
		t.Fatalf("registering every experiment again grew the run to %d analyzers", n)
	}
	_, end := AnalysisWeek()
	want := generated(sim, days(0, simtime.StudyDays-1), days(end-27, end))
	if got := fed(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("the run fed %d (stream, day) groups, want one generation of the %d needed", len(got), len(want))
	}
}

// A study holding one experiment generates only what that experiment
// reads: table2 reads the benign January and April weeks.
func TestStudyGeneratesOnlyNeededDays(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	st := NewStudy(sim)
	st.Table2()
	from, to := AnalysisWeek()
	want := generated(sim, append(days(simtime.JanWeekStart, simtime.JanWeekEnd), days(from, to)...), nil)
	if got := fed(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("table2 fed %d (stream, day) groups, want the %d of its two weeks", len(got), len(want))
	}
}

// A failed run returns its cause — an analyzer panic as a
// *core.WorkerPanicError, a cancelled context as the context's error —
// and leaves every registered analyzer empty.
func TestStudyRunErrors(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	from, to := AnalysisWeek()

	st := NewStudy(sim)
	uc := st.userCentric(benignPop, from, to)
	core.AddCommutativeAnalyzer(st.set, &bombAnalyzer{},
		func() *bombAnalyzer { return &bombAnalyzer{} },
		func(into, from *bombAnalyzer) {})
	var pe *core.WorkerPanicError
	if err := st.Run(context.Background()); !errors.As(err, &pe) || pe.Value != "bomb" {
		t.Fatalf("want the bomb's *core.WorkerPanicError, got %v", err)
	}
	if n := uc.Users(); n != 0 {
		t.Fatalf("a failed run adopted %d users", n)
	}

	st = NewStudy(sim)
	uc = st.userCentric(benignPop, from, to)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := uc.Users(); n != 0 {
		t.Fatalf("a cancelled run adopted %d users", n)
	}
}
