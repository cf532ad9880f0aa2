package core

import (
	"maps"
	"math"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// Actioning simulates §7.1: on day n, compute each prefix's abusive-
// account ratio; action every prefix whose ratio meets a threshold; on
// day n+1, measure which abusive accounts were caught (TPR) and which
// benign users were hit (FPR).
//
// Observe keeps the distinct (entity, prefix) pairs of day n and of day
// n+1 and ignores every other day. Both are set unions, so the state
// does not depend on record order or on how the stream is split (Merge
// unions them); Counts and Curve derive the ratios. One instance
// evaluates one (family, prefix length) pair; Figure 11 runs four of
// them (/128, /64, /56, IPv4).
type Actioning struct {
	Family netaddr.Family
	Length int
	// DayN is day n; day n+1 follows it.
	DayN simtime.Day

	seen [2]map[actionKey]struct{} // day n, day n+1
}

// actionKey is one (entity, prefix) pair; an entity is a user ID on one
// side of the benign/abusive split.
type actionKey struct {
	pairKey
	abusive bool
}

// NewActioning returns a simulator for one family and prefix length,
// evaluating day dayN against day dayN+1.
func NewActioning(fam netaddr.Family, length int, dayN simtime.Day) *Actioning {
	return &Actioning{Family: fam, Length: length, DayN: dayN, seen: [2]map[actionKey]struct{}{{}, {}}}
}

// Observe feeds one observation; only days n and n+1 count.
func (ac *Actioning) Observe(o telemetry.Observation) {
	if d := o.Day - ac.DayN; (d == 0 || d == 1) && o.Addr.Family() == ac.Family && ac.Length <= o.Addr.Bits() {
		ac.seen[d][actionKey{pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, ac.Length)}, o.Abusive}] = struct{}{}
	}
}

// Merge folds another simulator's pairs into ac. Both simulators must
// share Family, Length and DayN.
func (ac *Actioning) Merge(other *Actioning) {
	for d := range ac.seen {
		maps.Copy(ac.seen[d], other.seen[d])
	}
}

// populations tallies day n's pairs into per-prefix populations.
func (ac *Actioning) populations() map[netaddr.Prefix]*prefixPop {
	pops := make(map[netaddr.Prefix]*prefixPop)
	for k := range ac.seen[0] {
		pop := pops[k.pfx]
		if pop == nil {
			pop = &prefixPop{}
			pops[k.pfx] = pop
		}
		if k.abusive {
			pop.abusive++
		} else {
			pop.benign++
		}
	}
	return pops
}

// bestRatios returns, per day-n+1 entity, the maximum day-n abusive
// ratio among the prefixes it appears on: 0 for a prefix seen on day n
// with no abusive account, -1 when none of its prefixes was seen on
// day n.
func (ac *Actioning) bestRatios() (benign, abusive map[uint64]float64) {
	pops := ac.populations()
	benign, abusive = make(map[uint64]float64), make(map[uint64]float64)
	for k := range ac.seen[1] {
		ratio := -1.0
		if pop := pops[k.pfx]; pop != nil {
			ratio = float64(pop.abusive) / float64(pop.abusive+pop.benign)
		}
		m := benign
		if k.abusive {
			m = abusive
		}
		if prev, ok := m[k.uid]; !ok || ratio > prev {
			m[k.uid] = ratio
		}
	}
	return benign, abusive
}

// Counts returns the confusion counts at one actioning threshold: an
// entity is actioned if any of its day-n+1 prefixes had a day-n abusive
// ratio >= threshold (with at least one abusive account).
func (ac *Actioning) Counts(threshold float64) stats.BinaryCounts {
	return countsAt(ac.bestRatios())(threshold)
}

// countsAt returns Counts over precomputed best ratios.
func countsAt(benign, abusive map[uint64]float64) func(threshold float64) stats.BinaryCounts {
	return func(threshold float64) stats.BinaryCounts {
		var c stats.BinaryCounts
		// A ratio of exactly 0 means the prefix was seen on day n with no
		// abusive accounts: never actioned. Thresholds are clamped to a
		// tiny positive floor so "threshold 0" means "any abusive presence".
		t := threshold
		if t <= 0 {
			t = math.SmallestNonzeroFloat64
		}
		for _, r := range abusive {
			if r >= t {
				c.TP++
			} else {
				c.FN++
			}
		}
		for _, r := range benign {
			if r >= t {
				c.FP++
			} else {
				c.TN++
			}
		}
		return c
	}
}

// Curve evaluates the thresholds and returns the ROC curve.
func (ac *Actioning) Curve(thresholds []float64) *stats.ROC {
	counts := countsAt(ac.bestRatios())
	pts := make([]stats.ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		c := counts(t)
		pts = append(pts, stats.ROCPoint{Threshold: t, TPR: c.TPR(), FPR: c.FPR()})
	}
	return stats.NewROC(pts)
}

// DayNPrefixes returns how many prefixes were observed on day n.
func (ac *Actioning) DayNPrefixes() int { return len(ac.populations()) }

// DayN1Entities returns the day-n+1 population sizes (benign, abusive).
func (ac *Actioning) DayN1Entities() (benign, abusive int) {
	b, a := ac.bestRatios()
	return len(b), len(a)
}

// DefaultThresholds returns the threshold sweep used for Figure 11:
// 0 (any abusive presence) through 1.0 (pure-abuse prefixes only).
func DefaultThresholds() []float64 {
	return []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}
}
