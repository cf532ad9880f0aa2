package userv6

// A Study is one pass over the simulated study period that every paper
// experiment reads. Each experiment registers its analyzers, with their
// day windows and populations, and gets back a reader for its result.
// Run generates each needed day of each needed stream once and feeds it
// to every registration through one core.FanOut. Experiments asking for
// the same analyzer over the same records share its registration.

import (
	"context"
	"fmt"

	"userv6/internal/core"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// Study collects experiment registrations for one shared run over a
// Sim: register experiments with its methods, Run it, then read them.
type Study struct {
	sim  *Sim
	set  *core.AnalyzerSet
	regs map[string]any             // registered analyzers by kind, cohort and window
	need [2][simtime.StudyDays]bool // per stream (benign, abusive)
}

// cohort selects the population a registration reads; benignPop and
// abusivePop index Study.need.
type cohort int

const (
	benignPop cohort = iota
	abusivePop
	bothPops
)

// NewStudy returns a study over sim with nothing registered.
func NewStudy(sim *Sim) *Study {
	return &Study{sim: sim, set: core.NewAnalyzerSet(), regs: make(map[string]any)}
}

// Sim returns the simulation the study reads.
func (st *Study) Sim() *Sim { return st.sim }

// register returns the analyzer mk builds, registered with fold merge
// on pop's records over days [from, to], and marks those days of pop's
// streams as needed; only days of the study period are generated.
// Experiments asking for the same kind of analyzer over the same
// records share one registration.
func register[U any, T interface {
	*U
	core.Observer
}](st *Study, kind string, pop cohort, from, to simtime.Day, mk func() T, merge func(into, from T)) T {
	key := fmt.Sprint(kind, pop, from, to)
	if a, ok := st.regs[key].(T); ok {
		return a
	}
	for s := range st.need {
		if pop == bothPops || pop == cohort(s) {
			for d := max(from, 0); d <= min(to, simtime.StudyDays-1); d++ {
				st.need[s][d] = true
			}
		}
	}
	a := mk()
	core.AddCommutativeAnalyzerFiltered(st.set, a, mk, merge, func(o telemetry.Observation) bool {
		return o.Day >= from && o.Day <= to && (pop == bothPops || o.Abusive == (pop == abusivePop))
	})
	st.regs[key] = a
	return a
}

func (st *Study) prevalence(from, to simtime.Day) *core.Prevalence {
	return register(st, "prevalence", benignPop, from, to, core.NewPrevalence, (*core.Prevalence).Merge)
}

func (st *Study) userCentric(pop cohort, from, to simtime.Day) *core.UserCentric {
	mk := func() *core.UserCentric { return core.NewUserCentricFor(pop == abusivePop) }
	return register(st, "usercentric", pop, from, to, mk, (*core.UserCentric).Merge)
}

// lifespans covers the lookback days ending on ref.
func (st *Study) lifespans(pop cohort, ref simtime.Day, lookback int, lengths ...int) *core.Lifespans {
	mk := func() *core.Lifespans { return core.NewLifespans(ref, lengths...).Restrict(pop == abusivePop) }
	return register(st, fmt.Sprint("lifespans", lengths), pop, ref-simtime.Day(lookback)+1, ref, mk, (*core.Lifespans).Merge)
}

// Run generates every needed day of each needed stream once, with one
// Generate call per run of consecutive days, and feeds the records in
// blocks to every registration through one core.FanOut. The readers the
// experiments returned may be called once Run returns nil; an error is
// ctx's or an analyzer's *core.WorkerPanicError.
func (st *Study) Run(ctx context.Context) error {
	fan := st.set.NewFanOut()
	defer fan.Abort()
	var err error
	batch := make([]telemetry.Observation, 0, telemetry.DefaultBlockRecords)
	flush := func() {
		if err == nil {
			err = fan.ObserveBatch(ctx, batch)
		}
		batch = batch[:0]
	}
	emit := func(o telemetry.Observation) {
		if batch = append(batch, o); len(batch) == cap(batch) {
			flush()
		}
	}
	generate := [2]func(from, to simtime.Day) error{
		func(from, to simtime.Day) error { return st.sim.Benign.GenerateCtx(ctx, from, to, emit) },
		func(from, to simtime.Day) error { st.sim.Abusive.Generate(from, to, emit); return nil },
	}
	for s, days := range st.need {
		for from, to := 0, 0; from < len(days); from = to + 1 {
			for to = from; to < len(days) && days[to]; to++ {
			}
			if to > from && err == nil {
				if e := generate[s](simtime.Day(from), simtime.Day(to-1)); err == nil {
					err = e
				}
			}
		}
	}
	if flush(); err != nil {
		return err
	}
	return fan.Close()
}

// runAlone registers one experiment on a fresh study over s, runs it
// and reads the result.
func runAlone[T any](s *Sim, register func(*Study) func() T) T {
	st := NewStudy(s)
	read := register(st)
	if err := st.Run(context.Background()); err != nil {
		panic(err) // a background run fails only when an analyzer panics
	}
	return read()
}

// Fig1 runs Study.Fig1 alone.
func (s *Sim) Fig1(from, to simtime.Day) []core.DayShare {
	return runAlone(s, func(st *Study) func() []core.DayShare { return st.Fig1(from, to) })
}

// Table1 runs Study.Table1 alone.
func (s *Sim) Table1(from, to simtime.Day) Table1Result {
	return runAlone(s, func(st *Study) func() Table1Result { return st.Table1(from, to) })
}

// Fig5And6 runs Study.Fig5And6 alone.
func (s *Sim) Fig5And6(abusive bool) LifespanResult {
	return runAlone(s, func(st *Study) func() LifespanResult { return st.Fig5And6(abusive) })
}

// Advise runs Study.Advise alone.
func (s *Sim) Advise(fprTolerance float64) core.Advice {
	return runAlone(s, func(st *Study) func() core.Advice { return st.Advise(fprTolerance) })
}

// Table2 runs Study.Table2 alone.
func (s *Sim) Table2() Table2Result { return runAlone(s, (*Study).Table2) }

// CountryRatios runs Study.CountryRatios alone.
func (s *Sim) CountryRatios() []core.RatioRow { return runAlone(s, (*Study).CountryRatios) }

// ClientAddrPatterns runs Study.ClientAddrPatterns alone.
func (s *Sim) ClientAddrPatterns() core.ClientAddrPatterns {
	return runAlone(s, (*Study).ClientAddrPatterns)
}

// Fig2 runs Study.Fig2 alone.
func (s *Sim) Fig2() AddrsPerUserResult { return runAlone(s, (*Study).Fig2) }

// Fig3 runs Study.Fig3 alone.
func (s *Sim) Fig3() AddrsPerUserResult { return runAlone(s, (*Study).Fig3) }

// Fig4 runs Study.Fig4 alone.
func (s *Sim) Fig4() Fig4Result { return runAlone(s, (*Study).Fig4) }

// IPCentricWeek runs Study.IPCentricWeek alone.
func (s *Sim) IPCentricWeek() IPCentricResult { return runAlone(s, (*Study).IPCentricWeek) }

// Outliers runs Study.Outliers alone.
func (s *Sim) Outliers() OutlierResult { return runAlone(s, (*Study).Outliers) }

// Fig11 runs Study.Fig11 alone.
func (s *Sim) Fig11() Fig11Result { return runAlone(s, (*Study).Fig11) }

// ComparePandemic runs Study.ComparePandemic alone.
func (s *Sim) ComparePandemic() PandemicComparison { return runAlone(s, (*Study).ComparePandemic) }

// ChurnReasons runs Study.ChurnReasons alone.
func (s *Sim) ChurnReasons() core.ChurnBreakdown { return runAlone(s, (*Study).ChurnReasons) }
