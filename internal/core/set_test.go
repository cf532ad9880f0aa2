package core

import (
	"context"
	"reflect"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// pipelineStream builds a day-ordered synthetic stream exercising every
// analyzer: dual-stack users that rotate IIDs, move /64s within their
// /44, and occasionally switch networks, spread over ASNs and countries,
// with a sprinkling of abusive accounts.
func pipelineStream() []telemetry.Observation {
	src := rng.New(4242)
	const users = 400
	countries := []string{"US", "DE", "JP", "BR", "IN"}
	var out []telemetry.Observation

	type state struct {
		region, subnet uint64
		iid            uint64
	}
	states := make([]state, users)
	for u := range states {
		states[u] = state{region: src.Uint64() % 8, subnet: src.Uint64() % 4, iid: src.Uint64()}
	}

	for day := simtime.Day(0); day <= 7; day++ {
		for u := 0; u < users; u++ {
			st := &states[u]
			// Churn: mostly IID rotation, sometimes subnet move, rarely a
			// network switch.
			switch r := src.Uint64() % 100; {
			case r < 5:
				st.region = src.Uint64() % 8
				st.subnet = src.Uint64() % 4
				st.iid = src.Uint64()
			case r < 25:
				st.subnet = src.Uint64() % 4
				st.iid = src.Uint64()
			case r < 70:
				st.iid = src.Uint64()
			}
			hi := 0x2001_0db8_0000_0000 | st.region<<20 | st.subnet
			o := telemetry.Observation{
				Day:      day,
				UserID:   uint64(u),
				Addr:     netaddr.AddrFrom6(hi, st.iid),
				ASN:      netmodel.ASN(100 + st.region),
				Requests: uint32(1 + src.Uint64()%20),
				Abusive:  u%11 == 0,
			}
			o.SetCountry(countries[u%len(countries)])
			out = append(out, o)
			// Dual stack: most users also show up over IPv4.
			if u%3 != 0 {
				o4 := o
				o4.Addr = netaddr.AddrFrom4(0xc0a8_0000 | uint32(u))
				o4.Requests = uint32(1 + src.Uint64()%10)
				out = append(out, o4)
			}
		}
	}
	return out
}

// fullSet registers one of every analyzer on a fresh AnalyzerSet and
// returns the primaries for querying. Every default analyzer's
// accumulated state is a pure order-free fold (set union, min-day,
// OR/sum), which is what the commutative registration declares.
func fullSet(ref simtime.Day) (*AnalyzerSet, *UserCentric, *IPCentric, *ChurnAttribution, *Lifespans, *Prevalence) {
	set := NewAnalyzerSet()
	uc := NewUserCentricFor(false)
	AddCommutativeAnalyzer(set, uc, func() *UserCentric { return NewUserCentricFor(false) }, (*UserCentric).Merge)
	ic := NewIPCentric(netaddr.IPv6, 64)
	AddCommutativeAnalyzer(set, ic, func() *IPCentric { return NewIPCentric(netaddr.IPv6, 64) }, (*IPCentric).Merge)
	churn := NewChurnAttribution(2)
	AddCommutativeAnalyzer(set, churn, func() *ChurnAttribution { return NewChurnAttribution(2) }, (*ChurnAttribution).Merge)
	life := NewLifespans(ref, 64, 128, 32)
	AddCommutativeAnalyzer(set, life, func() *Lifespans { return NewLifespans(ref, 64, 128, 32) }, (*Lifespans).Merge)
	prev := NewPrevalence()
	AddCommutativeAnalyzerFiltered(set, prev, NewPrevalence, (*Prevalence).Merge,
		func(o telemetry.Observation) bool { return !o.Abusive })
	return set, uc, ic, churn, life, prev
}

// TestPipelineMatchesSequential is the core equality guarantee: for
// every analyzer, a fan-out run produces exactly the state a sequential
// feed produces.
func TestPipelineMatchesSequential(t *testing.T) {
	stream := pipelineStream()
	const ref = simtime.Day(7)

	seqSet, suc, sic, schurn, slife, sprev := fullSet(ref)
	for _, o := range stream {
		seqSet.Observe(o)
	}

	set, uc, ic, churn, life, prev := fullSet(ref)
	fan := set.NewFanOut()
	defer fan.Abort()
	for lo := 0; lo < len(stream); lo += telemetry.DefaultBlockRecords {
		if err := fan.ObserveBatch(context.Background(), stream[lo:min(lo+telemetry.DefaultBlockRecords, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	if uc.Users() != suc.Users() {
		t.Fatalf("fan-out: UserCentric users %d, want %d", uc.Users(), suc.Users())
	}
	for _, fam := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
		if !reflect.DeepEqual(uc.AddrsPerUser(fam), suc.AddrsPerUser(fam)) {
			t.Fatalf("fan-out: AddrsPerUser(%v) differs", fam)
		}
	}
	if !reflect.DeepEqual(uc.PrefixSpans([]int{44, 64}), suc.PrefixSpans([]int{44, 64})) {
		t.Fatalf("fan-out: PrefixSpans differ")
	}
	if !reflect.DeepEqual(uc.TopUsersByAddrs(netaddr.IPv6, 10), suc.TopUsersByAddrs(netaddr.IPv6, 10)) {
		t.Fatalf("fan-out: TopUsersByAddrs differ")
	}
	if !reflect.DeepEqual(uc.AddrPatterns(), suc.AddrPatterns()) {
		t.Fatalf("fan-out: AddrPatterns differ")
	}

	if ic.Prefixes() != sic.Prefixes() {
		t.Fatalf("fan-out: IPCentric prefixes %d, want %d", ic.Prefixes(), sic.Prefixes())
	}
	if !reflect.DeepEqual(ic.UsersPerPrefix(), sic.UsersPerPrefix()) {
		t.Fatalf("fan-out: UsersPerPrefix differs")
	}
	if !reflect.DeepEqual(ic.TopPrefixes(5), sic.TopPrefixes(5)) {
		t.Fatalf("fan-out: TopPrefixes differ")
	}
	if !reflect.DeepEqual(ic.AbusivePerAbusivePrefix(), sic.AbusivePerAbusivePrefix()) {
		t.Fatalf("fan-out: AbusivePerAbusivePrefix differs")
	}

	if churn.Breakdown() != schurn.Breakdown() {
		t.Fatalf("fan-out: churn %+v, want %+v", churn.Breakdown(), schurn.Breakdown())
	}

	if life.Pairs() != slife.Pairs() {
		t.Fatalf("fan-out: lifespan pairs %d, want %d", life.Pairs(), slife.Pairs())
	}
	if !reflect.DeepEqual(life.AgeHist(netaddr.IPv6, 128), slife.AgeHist(netaddr.IPv6, 128)) {
		t.Fatalf("fan-out: AgeHist differs")
	}
	if !reflect.DeepEqual(life.MedianAgePerUser(netaddr.IPv6, 64), slife.MedianAgePerUser(netaddr.IPv6, 64)) {
		t.Fatalf("fan-out: MedianAgePerUser differs")
	}
	if !reflect.DeepEqual(life.FreshShares(netaddr.IPv6), slife.FreshShares(netaddr.IPv6)) {
		t.Fatalf("fan-out: FreshShares differ")
	}

	if !reflect.DeepEqual(prev.Daily(), sprev.Daily()) {
		t.Fatalf("fan-out: Daily differs")
	}
	if !reflect.DeepEqual(prev.TopASNs(1, 0, nil), sprev.TopASNs(1, 0, nil)) {
		t.Fatalf("fan-out: TopASNs differ")
	}
	if !reflect.DeepEqual(prev.TopCountries(1, 0), sprev.TopCountries(1, 0)) {
		t.Fatalf("fan-out: TopCountries differ")
	}
}

// Merging two analyzers fed arbitrary (non-user-disjoint) splits must be
// exact for the set-algebraic analyzers.
func TestLifespanPrevalenceMergeArbitrarySplit(t *testing.T) {
	stream := pipelineStream()
	const ref = simtime.Day(7)

	wantLife := NewLifespans(ref, 64, 128)
	wantPrev := NewPrevalence()
	for _, o := range stream {
		wantLife.Observe(o)
		wantPrev.Observe(o)
	}

	// Interleave records across two shards — users deliberately split.
	la, lb := NewLifespans(ref, 64, 128), NewLifespans(ref, 64, 128)
	pa, pb := NewPrevalence(), NewPrevalence()
	for i, o := range stream {
		if i%2 == 0 {
			la.Observe(o)
			pa.Observe(o)
		} else {
			lb.Observe(o)
			pb.Observe(o)
		}
	}
	la.Merge(lb)
	pa.Merge(pb)

	if la.Pairs() != wantLife.Pairs() {
		t.Fatalf("merged pairs %d, want %d", la.Pairs(), wantLife.Pairs())
	}
	if !reflect.DeepEqual(la.AgeHist(netaddr.IPv6, 128), wantLife.AgeHist(netaddr.IPv6, 128)) {
		t.Fatal("merged AgeHist differs")
	}
	if !reflect.DeepEqual(pa.Daily(), wantPrev.Daily()) {
		t.Fatal("merged Daily differs")
	}
	if !reflect.DeepEqual(pa.TopASNs(1, 0, nil), wantPrev.TopASNs(1, 0, nil)) {
		t.Fatal("merged TopASNs differ")
	}
	if !reflect.DeepEqual(pa.TopCountries(1, 0), wantPrev.TopCountries(1, 0)) {
		t.Fatal("merged TopCountries differ")
	}
}

// Churn merge is exact for user-disjoint splits (the generation shards'
// split).
func TestChurnMergeUserDisjoint(t *testing.T) {
	stream := pipelineStream()
	want := NewChurnAttribution(2)
	for _, o := range stream {
		want.Observe(o)
	}
	a, b := NewChurnAttribution(2), NewChurnAttribution(2)
	for _, o := range stream {
		if o.UserID%2 == 0 {
			a.Observe(o)
		} else {
			b.Observe(o)
		}
	}
	a.Merge(b)
	if a.Breakdown() != want.Breakdown() {
		t.Fatalf("merged %+v, want %+v", a.Breakdown(), want.Breakdown())
	}
}

type panicAnalyzer struct{ at uint64 }

func (p *panicAnalyzer) Observe(o telemetry.Observation) {
	if o.UserID == p.at {
		panic("poisoned record")
	}
}
