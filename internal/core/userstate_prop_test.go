package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// userStateStream synthesizes a user-contiguous stream — each user's
// sightings together, in day order, as the generators write them — for
// the per-user analyzer layout. Users share /44s, /64s and some full
// addresses, so populations exceed one; every address is sighted one to
// three times on random days, so first days and repeats interleave; one
// user in seven is abusive; user 0 is present, so a zero ID cannot pass
// for "no user"; and one user in ten is heavy, with several times
// scanLimit distinct IPv4 addresses, IPv6 addresses and /64s, so their
// key lists are indexed. Each record's ASN follows its address's
// network bits, its request count its day, and its country its user, so
// Prevalence has several ASNs and countries with mixed families to tally.
func userStateStream(seed uint64, users int) []telemetry.Observation {
	src := rng.New(seed)
	const days = 5
	var out []telemetry.Observation
	for u := 0; u < users; u++ {
		uid := src.Uint64() >> 1
		if u == 0 {
			uid = 0
		}
		abusive := u%7 == 3
		n4, n6, iids := 1+src.Intn(4), 1+src.Intn(6), uint64(64)
		if u%10 == 1 {
			n4, n6, iids = 3*scanLimit+src.Intn(scanLimit), 4*scanLimit+src.Intn(2*scanLimit), 1<<20
		}
		var mine []telemetry.Observation
		sight := func(a netaddr.Addr) {
			hi, lo := a.Words()
			for k := 1 + src.Intn(3); k > 0; k-- {
				o := telemetry.Observation{
					Day: simtime.Day(src.Intn(days)), UserID: uid, Addr: a, Abusive: abusive,
					ASN: netmodel.ASN(hi>>20&3 | lo>>2&3),
				}
				o.Requests = uint32(1 + o.Day)
				o.SetCountry([]string{"DE", "GR", "US"}[u%3])
				mine = append(mine, o)
			}
		}
		for i := 0; i < n4; i++ {
			sight(netaddr.AddrFrom4(0x0a00_0000 | uint32(src.Intn(3*n4))))
		}
		for i := 0; i < n6; i++ {
			hi := 0x2001_0db8_0000_0000 | uint64(src.Intn(8))<<20 | uint64(src.Intn(16))
			sight(netaddr.AddrFrom6(hi, src.Uint64()%iids))
		}
		sort.SliceStable(mine, func(i, j int) bool { return mine[i].Day < mine[j].Day })
		out = append(out, mine...)
	}
	return out
}

// dayMajor returns the stream stably sorted by day: every user's day-d
// records before anyone's day d+1, which defeats the last-user memo.
func dayMajor(stream []telemetry.Observation) []telemetry.Observation {
	out := append([]telemetry.Observation(nil), stream...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}

// alternating returns the records of users a and b from a
// user-contiguous stream interleaved one for one — the memo misses on
// every record — followed by whichever user has records left; and the
// same records user-contiguous.
func alternating(stream []telemetry.Observation, a, b uint64) (alt, contiguous []telemetry.Observation) {
	var as, bs []telemetry.Observation
	for _, o := range stream {
		switch o.UserID {
		case a:
			as = append(as, o)
		case b:
			bs = append(bs, o)
		}
	}
	for i := 0; i < len(as) || i < len(bs); i++ {
		if i < len(as) {
			alt = append(alt, as[i])
		}
		if i < len(bs) {
			alt = append(alt, bs[i])
		}
	}
	return alt, append(as, bs...)
}

// split deals the stream's records at random into n parts: every part
// sees some of most users' records, so the parts are not user-disjoint.
func split(src *rng.Source, stream []telemetry.Observation, n int) [][]telemetry.Observation {
	parts := make([][]telemetry.Observation, n)
	for _, o := range stream {
		i := src.Intn(n)
		parts[i] = append(parts[i], o)
	}
	return parts
}

// subject is one analyzer configuration under the order and merge
// properties: how to build it, fold it, and read every query back.
type subject[T Observer] struct {
	name   string
	mk     func() T
	merge  func(into, from T)
	result func(T) any
}

func (s subject[T]) feed(parts ...[]telemetry.Observation) T {
	a := s.mk()
	for _, p := range parts {
		for _, o := range p {
			a.Observe(o)
		}
	}
	return a
}

// check asserts the order and merge properties for one subject over a
// user-contiguous stream and returns the query results.
func (s subject[T]) check(t *testing.T, seed uint64, stream []telemetry.Observation, heavy [2]uint64) any {
	t.Helper()
	want := s.result(s.feed(stream))
	same := func(what string, got any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d: %s differs from the user-contiguous feed:\n got %+v\nwant %+v", s.name, seed, what, got, want)
		}
	}
	src := rng.New(seed * 7919)
	same("shuffled feed", s.result(s.feed(shuffled(src, stream))))
	same("day-major feed", s.result(s.feed(dayMajor(stream))))

	alt, contiguous := alternating(stream, heavy[0], heavy[1])
	if got, ref := s.result(s.feed(alt)), s.result(s.feed(contiguous)); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s seed %d: two users alternating on every record\n got %+v\nwant %+v", s.name, seed, got, ref)
	}

	for trial := 0; trial < 3; trial++ {
		p := split(src, shuffled(src, stream), 3)

		whole := s.feed(stream)
		s.merge(whole, s.mk())
		same("x.Merge(empty)", s.result(whole))
		empty := s.mk()
		s.merge(empty, s.feed(stream))
		same("empty.Merge(x)", s.result(empty))

		ab, ba := s.feed(p[0], p[2]), s.feed(p[1])
		s.merge(ab, s.feed(p[1]))
		s.merge(ba, s.feed(p[0], p[2]))
		if !reflect.DeepEqual(s.result(ab), s.result(ba)) {
			t.Fatalf("%s seed %d: Merge is not commutative", s.name, seed)
		}
		same("a.Merge(b)", s.result(ab))

		left := s.feed(p[0])
		s.merge(left, s.feed(p[1]))
		s.merge(left, s.feed(p[2]))
		bc := s.feed(p[1])
		s.merge(bc, s.feed(p[2]))
		right := s.feed(p[0])
		s.merge(right, bc)
		same("(a.Merge(b)).Merge(c)", s.result(left))
		same("a.Merge(b.Merge(c))", s.result(right))
	}
	return want
}

type ucResult struct {
	Users          int
	Addrs4, Addrs6 *stats.IntHist
	Spans          []SpanShare
	Per44, Per64   *stats.IntHist
	Top4, Top6     []TopUser
	More4, More6   int
	Patterns       ClientAddrPatterns
}

func userCentricResult(uc *UserCentric) any {
	n := uc.Users()
	return ucResult{
		Users:    n,
		Addrs4:   uc.AddrsPerUser(netaddr.IPv4),
		Addrs6:   uc.AddrsPerUser(netaddr.IPv6),
		Spans:    uc.PrefixSpans([]int{44, 48, 56, 64}),
		Per44:    uc.PrefixesPerUser(44),
		Per64:    uc.PrefixesPerUser(64),
		Top4:     uc.TopUsersByAddrs(netaddr.IPv4, n),
		Top6:     uc.TopUsersByAddrs(netaddr.IPv6, n),
		More4:    uc.UsersWithMoreThan(netaddr.IPv4, 3),
		More6:    uc.UsersWithMoreThan(netaddr.IPv6, scanLimit),
		Patterns: uc.AddrPatterns(),
	}
}

type icResult struct {
	Prefixes, Over1, AbusiveOver0 int
	Top                           []HeavyPrefix
	Users, Benign, AbAb, BenignAb *stats.IntHist
	Concentration                 HeavyConcentration
}

func ipCentricResult(ic *IPCentric) any {
	asnOf := func(a netaddr.Addr) netmodel.ASN {
		hi, lo := a.Words()
		return netmodel.ASN(hi>>20&7 | lo>>8&7)
	}
	return icResult{
		Prefixes:      ic.Prefixes(),
		Over1:         ic.PrefixesWithMoreThan(1),
		AbusiveOver0:  ic.AbusivePrefixesWithMoreThan(0),
		Top:           ic.TopPrefixes(ic.Prefixes()),
		Users:         ic.UsersPerPrefix(),
		Benign:        ic.BenignPerPrefix(),
		AbAb:          ic.AbusivePerAbusivePrefix(),
		BenignAb:      ic.BenignPerAbusivePrefix(),
		Concentration: ic.ConcentrationAbove(1, asnOf),
	}
}

type prevResult struct {
	Daily           []DayShare
	ASNs, Countries []RatioRow
	Zero, UnderTen  float64
	Qualifying      int
	DERatio         float64
	DEUsers         int
}

func prevalenceResult(p *Prevalence) any {
	r := prevResult{Daily: p.Daily(), ASNs: p.TopASNs(1, 0, nil), Countries: p.TopCountries(1, 0)}
	r.Zero, r.UnderTen, r.Qualifying = p.ASNShareBands(1)
	r.DERatio, r.DEUsers = p.CountryRatio("DE")
	return r
}

type lifeResult struct {
	Pairs            int
	Age4, Age6, Med4 *stats.IntHist
	Med64            *stats.IntHist
	Fresh4, Fresh6   []FreshShare
}

func lifespansResult(l *Lifespans) any {
	return lifeResult{
		Pairs:  l.Pairs(),
		Age4:   l.AgeHist(netaddr.IPv4, 32),
		Age6:   l.AgeHist(netaddr.IPv6, 128),
		Med4:   l.MedianAgePerUser(netaddr.IPv4, 32),
		Med64:  l.MedianAgePerUser(netaddr.IPv6, 64),
		Fresh4: l.FreshShares(netaddr.IPv4),
		Fresh6: l.FreshShares(netaddr.IPv6),
	}
}

// TestUserStateOrderAndMerge checks the analyzers that keep per-user
// state — UserCentric, IPCentric at v4/32, v6/128 and v6/64, and
// ChurnAttribution — against reference models. For them and for
// Prevalence and Lifespans it then checks that every query answers the
// same for a user-contiguous, a shuffled, a day-major and a
// two-users-alternating feed, and that Merge obeys identity,
// commutativity and associativity over random splits that are not
// user-disjoint. Heavy users carry more than twice scanLimit keys, so
// lists are indexed both while observing and inside Merge.
func TestUserStateOrderAndMerge(t *testing.T) {
	const countFrom = 2
	for _, seed := range []uint64{1, 2, 3} {
		stream := userStateStream(seed, 60)
		heavy := heaviestUsers(stream)

		uc := subject[*UserCentric]{"UserCentric", NewUserCentric, (*UserCentric).Merge, userCentricResult}
		got := uc.check(t, seed, stream, heavy).(ucResult)
		want4, want6 := refAddrCounts(stream)
		if !reflect.DeepEqual(got.Top4, want4) || !reflect.DeepEqual(got.Top6, want6) {
			t.Fatalf("UserCentric seed %d: per-user address counts differ from the reference", seed)
		}
		if got.More6 == 0 {
			t.Fatalf("seed %d: no user has more than scanLimit IPv6 addresses", seed)
		}

		for _, cfg := range []struct {
			fam    netaddr.Family
			length int
		}{{netaddr.IPv4, 32}, {netaddr.IPv6, 128}, {netaddr.IPv6, 64}} {
			ic := subject[*IPCentric]{
				name:   fmt.Sprintf("IPCentric %s/%d", cfg.fam, cfg.length),
				mk:     func() *IPCentric { return NewIPCentric(cfg.fam, cfg.length) },
				merge:  (*IPCentric).Merge,
				result: ipCentricResult,
			}
			got := ic.check(t, seed, stream, heavy).(icResult)
			if want := refPopulations(stream, cfg.fam, cfg.length); !reflect.DeepEqual(got.Top, want) {
				t.Fatalf("%s/%d seed %d: populations differ from the reference:\n got %v\nwant %v", cfg.fam, cfg.length, seed, got.Top, want)
			}
		}

		churn := subject[*ChurnAttribution]{
			name:   "ChurnAttribution",
			mk:     func() *ChurnAttribution { return NewChurnAttribution(countFrom) },
			merge:  (*ChurnAttribution).Merge,
			result: func(c *ChurnAttribution) any { return c.Breakdown() },
		}
		prev := subject[*Prevalence]{"Prevalence", NewPrevalence, (*Prevalence).Merge, prevalenceResult}
		if got := prev.check(t, seed, stream, heavy).(prevResult); len(got.ASNs) < 2 || len(got.Countries) != 3 {
			t.Fatalf("Prevalence seed %d: %d ASNs and %d countries, want several of each", seed, len(got.ASNs), len(got.Countries))
		}
		life := subject[*Lifespans]{
			name:   "Lifespans",
			mk:     func() *Lifespans { return NewLifespans(countFrom+1, 32, 44, 64, 128) },
			merge:  (*Lifespans).Merge,
			result: lifespansResult,
		}
		if got := life.check(t, seed, stream, heavy).(lifeResult); got.Age4.N() == 0 || got.Age6.N() == 0 {
			t.Fatalf("Lifespans seed %d: no reference-day pairs", seed)
		}

		ref := newSeqChurn(countFrom)
		for _, o := range stream {
			ref.Observe(o)
		}
		if got, want := churn.check(t, seed, stream, heavy), ref.breakdown(); got != want {
			t.Fatalf("ChurnAttribution seed %d: %+v, want the sequential walk's %+v", seed, got, want)
		}
	}
}

// heaviestUsers returns the two users with the most records.
func heaviestUsers(stream []telemetry.Observation) [2]uint64 {
	n := make(map[uint64]int)
	var uids []uint64
	for _, o := range stream {
		if n[o.UserID] == 0 {
			uids = append(uids, o.UserID)
		}
		n[o.UserID]++
	}
	sort.SliceStable(uids, func(i, j int) bool { return n[uids[i]] > n[uids[j]] })
	return [2]uint64{uids[0], uids[1]}
}

// refAddrCounts is the per-user distinct address count per family,
// computed with plain maps and ranked as TopUsersByAddrs ranks.
func refAddrCounts(stream []telemetry.Observation) (v4, v6 []TopUser) {
	sets := make(map[uint64]map[netaddr.Addr]struct{})
	for _, o := range stream {
		if sets[o.UserID] == nil {
			sets[o.UserID] = make(map[netaddr.Addr]struct{})
		}
		sets[o.UserID][o.Addr] = struct{}{}
	}
	rank := func(fam netaddr.Family) []TopUser {
		var out []TopUser
		for uid, set := range sets {
			c := 0
			for a := range set {
				if a.Family() == fam {
					c++
				}
			}
			if c > 0 {
				out = append(out, TopUser{UID: uid, Count: c})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
			return out[i].UID < out[j].UID
		})
		return out
	}
	return rank(netaddr.IPv4), rank(netaddr.IPv6)
}

// refPopulations is every prefix's user population with plain maps,
// ranked as TopPrefixes ranks.
func refPopulations(stream []telemetry.Observation, fam netaddr.Family, length int) []HeavyPrefix {
	type pair struct {
		uid uint64
		p   netaddr.Prefix
	}
	seen := make(map[pair]bool)
	pops := make(map[netaddr.Prefix]*HeavyPrefix)
	for _, o := range stream {
		if o.Addr.Family() != fam {
			continue
		}
		k := pair{o.UserID, netaddr.PrefixFrom(o.Addr, length)}
		if seen[k] {
			continue
		}
		seen[k] = true
		if pops[k.p] == nil {
			pops[k.p] = &HeavyPrefix{Prefix: k.p}
		}
		pops[k.p].Users++
		if o.Abusive {
			pops[k.p].Abusive++
		}
	}
	out := make([]HeavyPrefix, 0, len(pops))
	for _, hp := range pops {
		out = append(out, *hp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Users != out[j].Users {
			return out[i].Users > out[j].Users
		}
		return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
	})
	return out
}

// TestKeyArena drives the arena directly: three lists filled in an
// interleaved order (so lists relocate, grow at the tail, and pass
// scanLimit into an index) must answer find and insert exactly as a
// map per list does, and keep insertion order.
func TestKeyArena(t *testing.T) {
	src := rng.New(5)
	var a keyArena[int]
	lists := make([]keyList, 3)
	model := make([]map[words]int, len(lists))
	order := make([][]words, len(lists))
	for i := range model {
		model[i] = make(map[words]int)
	}
	for step := 0; step < 4*scanLimit*len(lists); step++ {
		i := src.Intn(len(lists))
		if i == 2 && step%5 != 0 {
			i = step % 2 // list 2 stays short
		}
		k := words{src.Uint64() % 4, src.Uint64() % uint64(8*scanLimit)}
		v, added := a.insert(&lists[i], k, step)
		old, had := model[i][k]
		if added == had {
			t.Fatalf("step %d: insert into list %d reported added=%v, model has=%v", step, i, added, had)
		}
		if had && *v != old {
			t.Fatalf("step %d: value %d, want %d", step, *v, old)
		}
		if !had {
			model[i][k] = step
			order[i] = append(order[i], k)
		}
		for j := range lists {
			if int(lists[j].n) != len(model[j]) {
				t.Fatalf("step %d: list %d holds %d keys, want %d", step, j, lists[j].n, len(model[j]))
			}
			if probe := (words{9, uint64(step)}); a.find(&lists[j], probe) >= 0 {
				t.Fatalf("step %d: list %d finds absent key", step, j)
			}
		}
	}
	if lists[0].n <= 2*scanLimit || lists[2].n > scanLimit {
		t.Fatalf("lists hold %d and %d keys: want one past 2*scanLimit and one within it", lists[0].n, lists[2].n)
	}
	if lists[0].ix == 0 || lists[2].ix != 0 {
		t.Fatalf("index slots %d and %d: want an index exactly for the list past scanLimit", lists[0].ix, lists[2].ix)
	}
	for i := range lists {
		for pos, s := range a.keys(&lists[i]) {
			if s.k != order[i][pos] || s.v != model[i][s.k] {
				t.Fatalf("list %d position %d: %v=%d, want %v=%d", i, pos, s.k, s.v, order[i][pos], model[i][order[i][pos]])
			}
			if got := a.find(&lists[i], s.k); got != int32(pos) {
				t.Fatalf("list %d: find(%v) = %d, want %d", i, s.k, got, pos)
			}
		}
	}
}
