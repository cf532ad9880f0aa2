package core

import (
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// ChurnCause classifies why a user appeared on a new IPv6 address — the
// paper's §8 calls for exactly this ("investigating the causes of
// dynamic IPv6 behavior, similar to the exploration of IPv4 dynamic
// address reasons by Padmanabhan et al."). The attribution uses only
// telemetry (no world-model internals), so it would run unchanged on
// real data:
//
//   - IIDRotation: new address inside a /64 the user already occupied —
//     privacy-extension / temporary-address rotation;
//   - SubnetMove: new /64 but inside a /44 the user already occupied —
//     delegated-prefix re-draw or mobile gateway move within a carrier
//     region;
//   - NetworkSwitch: new /44 as well — roaming to a different network
//     (or a provider-level renumbering).
type ChurnCause uint8

const (
	// IIDRotation is a new IID within a known /64.
	IIDRotation ChurnCause = iota
	// SubnetMove is a new /64 within a known /44.
	SubnetMove
	// NetworkSwitch is an entirely new region of the address space.
	NetworkSwitch
)

// String labels the cause.
func (c ChurnCause) String() string {
	switch c {
	case IIDRotation:
		return "iid-rotation"
	case SubnetMove:
		return "subnet-move"
	default:
		return "network-switch"
	}
}

// ChurnAttribution tallies new (user, IPv6 address) pairs by cause.
//
// The state is a set of (user, day, observed-prefix) first-sight
// tuples: for each user and each prefix the user was seen behind — the
// full /128 address, its /64, and its /44 — only the earliest day of
// contact is kept. Accumulation is therefore a pure min-fold: it is
// invariant under observation order and under how the stream is
// partitioned across replicas (Merge folds the tuples by minimum), so
// the analyzer is safe to register with AddCommutativeAnalyzer and to
// fold from arbitrary stream splits. Causes are not classified
// during the stream at all; Breakdown derives them from the first-day
// structure at query time.
//
// The tuples are held per user: three key lists (addresses, /64s and
// /44s), each in its own arena, valued by the first day.
type ChurnAttribution struct {
	// Warmup days at the start of the stream establish per-user state
	// without being counted (a pair is only "new" against history).
	CountFrom simtime.Day

	users                 userTable[churnUser]
	addrs, nets64, nets44 keyArena[simtime.Day]
}

// churnUser is one user's first-sight lists.
type churnUser struct {
	addrs, nets64, nets44 keyList
}

// NewChurnAttribution counts new pairs from countFrom onward; earlier
// days only build history.
func NewChurnAttribution(countFrom simtime.Day) *ChurnAttribution {
	return &ChurnAttribution{CountFrom: countFrom}
}

// Observe feeds one observation (IPv6 only; others are ignored).
// Observations may arrive in any order.
func (c *ChurnAttribution) Observe(o telemetry.Observation) {
	if !o.Addr.Is6() {
		return
	}
	u := c.users.get(o.UserID)
	hi, lo := o.Addr.Words()
	if d, added := c.addrs.insert(&u.addrs, words{hi, lo}, o.Day); !added {
		if *d <= o.Day {
			// Dominated sighting: the address was already seen on an
			// earlier (or equal) day, so the /64 and /44 minima cannot
			// improve either — they were set at least as early.
			return
		}
		*d = o.Day
	}
	minDay(&c.nets64, &u.nets64, prefixWords(o.Addr, 64), o.Day)
	minDay(&c.nets44, &u.nets44, prefixWords(o.Addr, 44), o.Day)
}

// minDay lowers k's first day in the list to d, adding k if absent.
func minDay(a *keyArena[simtime.Day], l *keyList, k words, d simtime.Day) {
	if cur, added := a.insert(l, k, d); !added && d < *cur {
		*cur = d
	}
}

// Merge folds another attribution's first-sight tuples into c by
// minimum day. The fold is exact for ANY split of the observation
// stream — user-disjoint, round-robin, block-wise, anything — because
// min is commutative, associative, and idempotent. Both analyzers must
// use the same CountFrom.
func (c *ChurnAttribution) Merge(other *ChurnAttribution) {
	for j, uid := range other.users.uids {
		ou := &other.users.state[j]
		u := c.users.get(uid)
		for _, s := range other.addrs.keys(&ou.addrs) {
			minDay(&c.addrs, &u.addrs, s.k, s.v)
		}
		for _, s := range other.nets64.keys(&ou.nets64) {
			minDay(&c.nets64, &u.nets64, s.k, s.v)
		}
		for _, s := range other.nets44.keys(&ou.nets44) {
			minDay(&c.nets44, &u.nets44, s.k, s.v)
		}
	}
}

// ChurnBreakdown is the attribution result.
type ChurnBreakdown struct {
	IIDRotation, SubnetMove, NetworkSwitch uint64
	Total                                  uint64
}

// Share returns the cause's fraction of all attributed churn.
func (b ChurnBreakdown) Share(cause ChurnCause) float64 {
	if b.Total == 0 {
		return 0
	}
	switch cause {
	case IIDRotation:
		return float64(b.IIDRotation) / float64(b.Total)
	case SubnetMove:
		return float64(b.SubnetMove) / float64(b.Total)
	default:
		return float64(b.NetworkSwitch) / float64(b.Total)
	}
}

// Breakdown derives the cause tallies from the first-sight structure.
//
// Each (user, address) pair whose first day is >= CountFrom counts
// exactly once. Classification reproduces the multiset of causes a
// day-ordered transition walk produces:
//
//   - the /64 was first seen on an earlier day -> IIDRotation (the
//     rotation landed in a /64 the user already had history in);
//   - the address is in its /64's first-day cohort, but another
//     address already represented that cohort -> IIDRotation (in a
//     stream walk every cohort member after the first rotates within
//     the by-then-known /64);
//   - the address opens its /64: the /44 was first seen on an earlier
//     day -> SubnetMove; otherwise the /64 is in its /44's first-day
//     cohort, whose first opener is the NetworkSwitch and the rest are
//     SubnetMoves.
//
// Which cohort member is "first" depends on the order the user's
// addresses were recorded in, but only the labels move between
// identical-cause members — the tallies are deterministic, equal to the
// sequential walk's for any feeding order or partition.
func (c *ChurnAttribution) Breakdown() ChurnBreakdown {
	var counts [3]uint64
	// opened64 and opened44 mark, by position in the current user's
	// /64 and /44 lists, the prefixes whose cohort opener was taken.
	var opened64, opened44 []bool
	for i := range c.users.state {
		u := &c.users.state[i]
		opened64 = append(opened64[:0], make([]bool, u.nets64.n)...)
		opened44 = append(opened44[:0], make([]bool, u.nets44.n)...)
		for _, s := range c.addrs.keys(&u.addrs) {
			dAddr := s.v
			if dAddr < c.CountFrom {
				continue
			}
			a := s.k.addr6()
			i64 := c.nets64.find(&u.nets64, prefixWords(a, 64))
			if c.nets64.keys(&u.nets64)[i64].v < dAddr || opened64[i64] {
				counts[IIDRotation]++
				continue
			}
			opened64[i64] = true
			i44 := c.nets44.find(&u.nets44, prefixWords(a, 44))
			if c.nets44.keys(&u.nets44)[i44].v < dAddr || opened44[i44] {
				counts[SubnetMove]++
				continue
			}
			opened44[i44] = true
			counts[NetworkSwitch]++
		}
	}
	return ChurnBreakdown{
		IIDRotation:   counts[IIDRotation],
		SubnetMove:    counts[SubnetMove],
		NetworkSwitch: counts[NetworkSwitch],
		Total:         counts[0] + counts[1] + counts[2],
	}
}
