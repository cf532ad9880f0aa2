package userv6

// Extensions beyond the paper's published experiments, in the directions
// its §8 future work sketches: multi-day blocklists with TTLs, rate-limit
// threshold sweeps, and per-network-type behavioral segmentation.

import (
	"fmt"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// BlocklistPolicy identifies one blocklist configuration to evaluate.
type BlocklistPolicy struct {
	Name      string
	Family    netaddr.Family
	Length    int
	Threshold float64
	TTLDays   int
}

// BlocklistSweepResult is one policy's outcome over the analysis week.
type BlocklistSweepResult struct {
	Policy   BlocklistPolicy
	TPR, FPR float64
	// FinalListSize is the number of listed prefixes after the run.
	FinalListSize int
}

// DefaultBlocklistPolicies spans the granularities and TTLs the §7.2
// discussion weighs.
func DefaultBlocklistPolicies() []BlocklistPolicy {
	return []BlocklistPolicy{
		{"/128 t=10% ttl=1", netaddr.IPv6, 128, 0.1, 1},
		{"/128 t=10% ttl=3", netaddr.IPv6, 128, 0.1, 3},
		{"/64 t=10% ttl=1", netaddr.IPv6, 64, 0.1, 1},
		{"/64 t=10% ttl=3", netaddr.IPv6, 64, 0.1, 3},
		{"/64 t=50% ttl=3", netaddr.IPv6, 64, 0.5, 3},
		{"IPv4 t=10% ttl=1", netaddr.IPv4, 32, 0.1, 1},
		{"IPv4 t=10% ttl=3", netaddr.IPv4, 32, 0.1, 3},
	}
}

// BlocklistSweep runs every policy over the analysis week (day 1 warms
// the list; days 2-7 are measured).
func (s *Sim) BlocklistSweep(policies []BlocklistPolicy) []BlocklistSweepResult {
	from, to := AnalysisWeek()
	sims := make([]*core.BlocklistSim, len(policies))
	for i, p := range policies {
		sims[i] = core.NewBlocklistSim(p.Family, p.Length, p.Threshold, p.TTLDays)
	}
	for day := from; day <= to; day++ {
		s.GenerateDay(day, func(o telemetry.Observation) {
			for _, b := range sims {
				b.ObserveDay(o)
			}
		})
		for _, b := range sims {
			b.EndDay()
		}
	}
	out := make([]BlocklistSweepResult, len(policies))
	for i, p := range policies {
		c := sims[i].Counts()
		out[i] = BlocklistSweepResult{
			Policy:        p,
			TPR:           c.TPR(),
			FPR:           c.FPR(),
			FinalListSize: sims[i].ListSize(),
		}
	}
	return out
}

// RateLimitSweep evaluates per-prefix-day entity caps at one granularity
// across several cap values, over the analysis week.
func (s *Sim) RateLimitSweep(fam netaddr.Family, length int, caps []int) []core.RateLimitOutcome {
	from, to := AnalysisWeek()
	sims := make([]*core.RateLimitSim, len(caps))
	for i, c := range caps {
		sims[i] = core.NewRateLimitSim(fam, length, c)
	}
	s.Generate(from, to, func(o telemetry.Observation) {
		for _, r := range sims {
			r.Observe(o)
		}
	})
	out := make([]core.RateLimitOutcome, len(caps))
	for i, r := range sims {
		out[i] = r.Outcome()
	}
	return out
}

// Segments computes the per-network-kind behavioral breakdown over the
// analysis week for benign users (§8 future work).
func (s *Sim) Segments() []core.SegmentReport {
	kinds := make(map[netmodel.ASN]netmodel.Kind, len(s.World.Networks()))
	for _, n := range s.World.Networks() {
		kinds[n.ASN] = n.Kind
	}
	seg := core.NewSegmentation(core.ClassifyByASN(kinds))
	from, to := AnalysisWeek()
	s.Benign.Generate(from, to, seg.Observe)
	return seg.Report()
}

// SketchedOutliers runs the fixed-memory heavy-hitter pipeline over the
// analysis week and cross-checks it against the exact analyzer,
// returning the sketched top prefixes plus agreement metrics.
type SketchedOutliersResult struct {
	Top            []core.SketchedHeavy
	TopError       float64
	HeavyRecall    float64
	PrefixEstimate float64
	ExactPrefixes  int
}

// SketchedOutliers exercises the production-scale counting path.
func (s *Sim) SketchedOutliers(length int) SketchedOutliersResult {
	from, to := AnalysisWeek()
	sk := core.NewSketchedIPCentric(netaddr.IPv6, length, 2048)
	exact := core.NewIPCentric(netaddr.IPv6, length)
	s.Generate(from, to, func(o telemetry.Observation) {
		sk.Observe(o)
		exact.Observe(o)
	})
	topErr, recall := core.CompareExact(sk, exact, 10)
	return SketchedOutliersResult{
		Top:            sk.Top(10),
		TopError:       topErr,
		HeavyRecall:    recall,
		PrefixEstimate: sk.Prefixes(),
		ExactPrefixes:  exact.Prefixes(),
	}
}

// TTLRecallCurve measures how recall decays with indicator age: the
// fraction of day (n+k) abusive accounts covered by day-n indicators,
// for k = 1..horizon (the threat-exchange decay experiment).
func (s *Sim) TTLRecallCurve(fam netaddr.Family, length int, horizon int) []float64 {
	day0 := simtime.AnalysisWeekStart
	indicators := make(map[netaddr.Prefix]struct{})
	s.Abusive.GenerateDay(day0, func(o telemetry.Observation) {
		if o.Addr.Family() == fam {
			indicators[netaddr.PrefixFrom(o.Addr, length)] = struct{}{}
		}
	})
	out := make([]float64, 0, horizon)
	for k := 1; k <= horizon; k++ {
		caught := make(map[uint64]struct{})
		total := make(map[uint64]struct{})
		s.Abusive.GenerateDay(day0+simtime.Day(k), func(o telemetry.Observation) {
			if o.Addr.Family() != fam {
				return
			}
			total[o.UserID] = struct{}{}
			if _, hit := indicators[netaddr.PrefixFrom(o.Addr, length)]; hit {
				caught[o.UserID] = struct{}{}
			}
		})
		if len(total) == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, float64(len(caught))/float64(len(total)))
	}
	return out
}

// ChurnReasons registers the attribution of the analysis week's new
// (user, IPv6 address) pairs to causes — IID rotation, subnet moves,
// network switches — after a one-week warmup (the §8 "causes of dynamic
// IPv6 behavior" study).
func (st *Study) ChurnReasons() func() core.ChurnBreakdown {
	from, to := AnalysisWeek()
	mk := func() *core.ChurnAttribution { return core.NewChurnAttribution(from) }
	return register(st, fmt.Sprint("churn", from), benignPop, from-7, to, mk, (*core.ChurnAttribution).Merge).Breakdown
}
