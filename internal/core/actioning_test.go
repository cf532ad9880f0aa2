package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// buildActioning creates a small two-day scenario:
//
//	day n:   addr A: 1 AA (pure); addr B: 1 AA + 9 benign (ratio 0.1);
//	         addr C: benign only.
//	day n+1: AA 100 returns to A; AA 101 appears on B; AA 102 appears on
//	         a brand-new addr D; benign 1 on B, benign 2 on C, benign 3
//	         on D.
func buildActioning() *Actioning {
	ac := NewActioning(netaddr.IPv4, 32, 0)
	ac.Observe(obs(100, "10.0.0.1", 0, true))
	ac.Observe(obs(101, "10.0.0.2", 0, true))
	for u := uint64(1); u <= 9; u++ {
		ac.Observe(obs(u, "10.0.0.2", 0, false))
	}
	ac.Observe(obs(10, "10.0.0.3", 0, false))

	ac.Observe(obs(100, "10.0.0.1", 1, true))
	ac.Observe(obs(101, "10.0.0.2", 1, true))
	ac.Observe(obs(102, "10.0.0.4", 1, true))
	ac.Observe(obs(1, "10.0.0.2", 1, false))
	ac.Observe(obs(2, "10.0.0.3", 1, false))
	ac.Observe(obs(3, "10.0.0.4", 1, false))
	return ac
}

func TestActioningThresholds(t *testing.T) {
	ac := buildActioning()
	if ac.DayNPrefixes() != 3 {
		t.Fatalf("dayN prefixes = %d", ac.DayNPrefixes())
	}
	if b, a := ac.DayN1Entities(); b != 3 || a != 3 {
		t.Fatalf("dayN1 entities = %d benign, %d abusive", b, a)
	}

	// Threshold 0 ("any abusive presence"): addrs A (ratio 1) and B
	// (0.1) actioned. AAs 100, 101 caught; 102 missed. Benign 1 hit.
	c := ac.Counts(0)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("t=0 counts = %+v", c)
	}
	if got := c.TPR(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("t=0 TPR = %v", got)
	}
	if got := c.FPR(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("t=0 FPR = %v", got)
	}

	// Threshold 0.5: only pure addr A actioned.
	c = ac.Counts(0.5)
	if c.TP != 1 || c.FP != 0 {
		t.Fatalf("t=0.5 counts = %+v", c)
	}

	// Threshold 1.0: same here (A is ratio 1).
	c = ac.Counts(1.0)
	if c.TP != 1 || c.FP != 0 {
		t.Fatalf("t=1 counts = %+v", c)
	}
}

func TestActioningPrefixGranularity(t *testing.T) {
	ac := NewActioning(netaddr.IPv6, 64, 0)
	// Day n: AA on one address of a /64.
	ac.Observe(obs(100, "2001:db8:0:1::a", 0, true))
	// Day n+1: a different AA on a different address, same /64.
	ac.Observe(obs(101, "2001:db8:0:1::b", 1, true))
	// And one on another /64: missed.
	ac.Observe(obs(102, "2001:db8:0:2::c", 1, true))
	c := ac.Counts(0)
	if c.TP != 1 || c.FN != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestActioningZeroRatioNotActioned(t *testing.T) {
	ac := NewActioning(netaddr.IPv4, 32, 0)
	ac.Observe(obs(1, "10.0.0.1", 0, false)) // benign-only prefix
	ac.Observe(obs(2, "10.0.0.1", 1, false))
	c := ac.Counts(0)
	if c.FP != 0 || c.TN != 1 {
		t.Fatalf("benign-only prefix actioned: %+v", c)
	}
}

func TestActioningCurve(t *testing.T) {
	ac := buildActioning()
	roc := ac.Curve(DefaultThresholds())
	if len(roc.Points) != len(DefaultThresholds()) {
		t.Fatalf("points = %d", len(roc.Points))
	}
	// TPR at the loosest threshold must be the max.
	loosest, _ := roc.At(0)
	for _, p := range roc.Points {
		if p.TPR > loosest.TPR {
			t.Fatalf("threshold %v TPR %v exceeds t=0", p.Threshold, p.TPR)
		}
	}
	if auc := roc.AUC(); auc <= 0 || auc > 1 {
		t.Fatalf("AUC = %v", auc)
	}
}

func TestActioningDedup(t *testing.T) {
	ac := NewActioning(netaddr.IPv4, 32, 0)
	for i := 0; i < 5; i++ {
		ac.Observe(obs(100, "10.0.0.1", 0, true))
		ac.Observe(obs(100, "10.0.0.1", 1, true))
	}
	c := ac.Counts(0)
	if c.TP != 1 {
		t.Fatalf("dedup failed: %+v", c)
	}
}

// seqActioning is the two-phase walk Actioning replaced, kept as the
// reference for its commutative form: every day-n record first, building
// per-prefix populations, then every day-n+1 record, each scored against
// the finished day-n populations as it arrives.
type seqActioning struct {
	fam       netaddr.Family
	length    int
	seenN     map[pairKey]struct{}
	dayN      map[netaddr.Prefix]*prefixPop
	seenN1    map[pairKey]struct{}
	benignN1  map[uint64]float64
	abusiveN1 map[uint64]float64
}

func newSeqActioning(fam netaddr.Family, length int) *seqActioning {
	return &seqActioning{
		fam: fam, length: length,
		seenN:     make(map[pairKey]struct{}),
		dayN:      make(map[netaddr.Prefix]*prefixPop),
		seenN1:    make(map[pairKey]struct{}),
		benignN1:  make(map[uint64]float64),
		abusiveN1: make(map[uint64]float64),
	}
}

func (ac *seqActioning) key(o telemetry.Observation) (pairKey, bool) {
	if o.Addr.Family() != ac.fam || ac.length > o.Addr.Bits() {
		return pairKey{}, false
	}
	return pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, ac.length)}, true
}

func (ac *seqActioning) observeDayN(o telemetry.Observation) {
	key, ok := ac.key(o)
	if _, dup := ac.seenN[key]; !ok || dup {
		return
	}
	ac.seenN[key] = struct{}{}
	pop := ac.dayN[key.pfx]
	if pop == nil {
		pop = &prefixPop{}
		ac.dayN[key.pfx] = pop
	}
	if o.Abusive {
		pop.abusive++
	} else {
		pop.benign++
	}
}

func (ac *seqActioning) observeDayN1(o telemetry.Observation) {
	key, ok := ac.key(o)
	if _, dup := ac.seenN1[key]; !ok || dup {
		return
	}
	ac.seenN1[key] = struct{}{}
	ratio := -1.0
	if pop := ac.dayN[key.pfx]; pop != nil && pop.abusive > 0 {
		ratio = float64(pop.abusive) / float64(pop.abusive+pop.benign)
	} else if pop != nil {
		ratio = 0
	}
	m := ac.benignN1
	if o.Abusive {
		m = ac.abusiveN1
	}
	if prev, ok := m[o.UserID]; !ok || ratio > prev {
		m[o.UserID] = ratio
	}
}

type actioningResult struct {
	Counts                    []stats.BinaryCounts
	Prefixes, Benign, Abusive int
}

// TestActioningOrderAndMerge checks the commutative Actioning against
// the two-phase walk at every DefaultThresholds value, for each Figure
// 11 granularity, under user-major, shuffled, day-major and
// two-users-alternating feeds, and that Merge obeys identity,
// commutativity and associativity over random 3-way splits that are not
// user-disjoint (the subject harness in userstate_prop_test.go).
func TestActioningOrderAndMerge(t *testing.T) {
	const dayN = 2
	var mixed int
	var caught, hit uint64
	for _, seed := range []uint64{1, 2, 3} {
		stream := userStateStream(seed, 60)
		heavy := heaviestUsers(stream)
		for _, g := range []struct {
			fam    netaddr.Family
			length int
		}{{netaddr.IPv4, 32}, {netaddr.IPv6, 128}, {netaddr.IPv6, 64}, {netaddr.IPv6, 56}} {
			ac := subject[*Actioning]{
				name:  fmt.Sprintf("Actioning %s/%d", g.fam, g.length),
				mk:    func() *Actioning { return NewActioning(g.fam, g.length, dayN) },
				merge: (*Actioning).Merge,
				result: func(ac *Actioning) any {
					r := actioningResult{Prefixes: ac.DayNPrefixes()}
					r.Benign, r.Abusive = ac.DayN1Entities()
					for _, th := range DefaultThresholds() {
						r.Counts = append(r.Counts, ac.Counts(th))
					}
					return r
				},
			}
			got := ac.check(t, seed, stream, heavy).(actioningResult)

			ref := newSeqActioning(g.fam, g.length)
			for _, o := range stream {
				if o.Day == dayN {
					ref.observeDayN(o)
				}
			}
			for _, o := range stream {
				if o.Day == dayN+1 {
					ref.observeDayN1(o)
				}
			}
			want := actioningResult{Prefixes: len(ref.dayN), Benign: len(ref.benignN1), Abusive: len(ref.abusiveN1)}
			for _, th := range DefaultThresholds() {
				want.Counts = append(want.Counts, countsAt(ref.benignN1, ref.abusiveN1)(th))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: %+v, want the two-phase walk's %+v", ac.name, seed, got, want)
			}
			for _, pop := range ref.dayN {
				if pop.abusive > 0 && pop.benign > 0 {
					mixed++
				}
			}
			caught += got.Counts[0].TP
			hit += got.Counts[0].FP
		}
	}
	if mixed == 0 || caught == 0 || hit == 0 {
		t.Fatalf("vacuous stream: %d mixed day-n prefixes, %d abusive caught, %d benign hit at threshold 0", mixed, caught, hit)
	}
}

func TestAdviseEndToEnd(t *testing.T) {
	ac := buildActioning()
	roc := ac.Curve(DefaultThresholds())

	usersV6 := stats.NewIntHist(8)
	usersV6.Add(1)
	usersV6.Add(1)
	usersV6.Add(2)
	usersV4 := stats.NewIntHist(8)
	usersV4.Add(10)
	usersV4.Add(12)
	p64 := stats.NewIntHist(8)
	p64.Add(3)
	p48 := stats.NewIntHist(8)
	p48.Add(11)
	aaV4 := stats.NewIntHist(8)
	aaV4.Add(2)
	aa56 := stats.NewIntHist(8)
	aa56.Add(2)
	aa64 := stats.NewIntHist(8)
	aa64.Add(1)

	a := Advise(AdvisorInputs{
		ROC128:             roc,
		ROC64:              roc,
		ROCV4:              roc,
		FPRTolerance:       0.5,
		UsersPerV6Addr:     usersV6,
		UsersPerV4Addr:     usersV4,
		UsersPerV6Prefix:   map[int]*stats.IntHist{64: p64, 48: p48},
		AbusivePerV6Prefix: map[int]*stats.IntHist{56: aa56, 64: aa64},
		AbusivePerV4Addr:   aaV4,
		V6AddrFreshShare:   0.9,
	})
	if a.BlocklistGranularity != 128 && a.BlocklistGranularity != 64 {
		t.Fatalf("granularity = %d", a.BlocklistGranularity)
	}
	if a.BlocklistTTLDays != 1 {
		t.Fatalf("TTL = %d, want 1 for 90%% fresh addresses", a.BlocklistTTLDays)
	}
	if a.RateLimitUsersPerV6Addr < 1 || a.RateLimitUsersPerV6Addr > 2 {
		t.Fatalf("rate limit budget = %d", a.RateLimitUsersPerV6Addr)
	}
	// /48 users-per-prefix (11) is far closer to v4 (10, 12) than /64.
	if a.RateLimitV4EquivalentLength != 48 {
		t.Fatalf("rate-limit equivalent = /%d, want /48", a.RateLimitV4EquivalentLength)
	}
	// /56 abusive distribution (2) matches v4 (2) exactly.
	if a.BlocklistV4EquivalentLength != 56 {
		t.Fatalf("blocklist equivalent = /%d, want /56", a.BlocklistV4EquivalentLength)
	}
}

func TestClosestToV4(t *testing.T) {
	v4 := stats.NewIntHist(8)
	for _, v := range []int{5, 6, 7} {
		v4.Add(v)
	}
	near := stats.NewIntHist(8)
	for _, v := range []int{5, 6, 8} {
		near.Add(v)
	}
	far := stats.NewIntHist(8)
	for _, v := range []int{1, 1, 1} {
		far.Add(v)
	}
	best, all := ClosestToV4(v4, map[int]*stats.IntHist{56: near, 64: far}, 16)
	if best.Length != 56 {
		t.Fatalf("best = %+v", best)
	}
	if len(all) != 2 {
		t.Fatalf("all = %d", len(all))
	}
	for _, e := range all {
		if e.Distance < 0 || e.Distance > 1 {
			t.Fatalf("KS distance out of range: %+v", e)
		}
	}
}

func TestAdviseTTLBands(t *testing.T) {
	base := AdvisorInputs{
		ROC128: stats.NewROC([]stats.ROCPoint{{TPR: 0.1, FPR: 0.001}}),
		ROC64:  stats.NewROC([]stats.ROCPoint{{TPR: 0.2, FPR: 0.001}}),
		ROCV4:  stats.NewROC([]stats.ROCPoint{{TPR: 0.1, FPR: 0.3}}),
	}
	base.FPRTolerance = 0.01
	for _, c := range []struct {
		fresh float64
		want  int
	}{{0.95, 1}, {0.8, 3}, {0.5, 7}} {
		in := base
		in.V6AddrFreshShare = c.fresh
		if got := Advise(in).BlocklistTTLDays; got != c.want {
			t.Errorf("fresh=%v TTL = %d, want %d", c.fresh, got, c.want)
		}
	}
	// /64 outperforms /128 at tolerance: choose /64.
	if got := Advise(base).BlocklistGranularity; got != 64 {
		t.Errorf("granularity = %d, want 64", got)
	}
	// v6 dominates v4 at low FPR here.
	if !Advise(base).V6BeatsV4BelowFPR {
		t.Error("expected v6 dominance")
	}
}
