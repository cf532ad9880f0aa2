package core

import (
	"sort"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// IPCentric accumulates the user populations of addresses or prefixes at
// one prefix length over its feeding window: the engine behind Figures
// 7-10 and the §6 outlier analyses. Use length 32 for IPv4 addresses,
// 128 for IPv6 addresses, or any IPv6 prefix length.
//
// Each user's distinct prefixes are a key list in one arena, each with
// whether the user was abusive when first seen on it; a prefix new to
// its user bumps that prefix's population by one.
type IPCentric struct {
	// Length is the aggregation prefix length; Family selects which
	// observations are counted.
	Length int
	Family netaddr.Family

	users userTable[keyList]
	keys  keyArena[bool]
	// pops holds each prefix's population in order of first sight, and
	// prefixes indexes it by the prefix's masked words (the family and
	// length are the analyzer's).
	pops     []prefixPop
	prefixes map[words]int32
}

// prefixPop is one prefix, by its masked words, and its population
// tally.
type prefixPop struct {
	k               words
	benign, abusive uint32
}

// NewIPCentric returns an analyzer for one family and prefix length.
func NewIPCentric(fam netaddr.Family, length int) *IPCentric {
	return &IPCentric{Length: length, Family: fam}
}

// Observe feeds one observation.
func (ic *IPCentric) Observe(o telemetry.Observation) {
	if o.Addr.Family() != ic.Family || ic.Length > o.Addr.Bits() {
		return
	}
	k := prefixWords(o.Addr, ic.Length)
	u := ic.users.get(o.UserID)
	if _, added := ic.keys.insert(u, k, o.Abusive); added {
		ic.count(k, o.Abusive)
	}
}

// count adds one user, abusive or benign, to prefix k's population.
func (ic *IPCentric) count(k words, abusive bool) {
	i, ok := ic.prefixes[k]
	if !ok {
		if ic.prefixes == nil {
			ic.prefixes = make(map[words]int32)
		}
		i = int32(len(ic.pops))
		ic.prefixes[k] = i
		ic.pops = push(ic.pops, prefixPop{k: k})
	}
	if abusive {
		ic.pops[i].abusive++
	} else {
		ic.pops[i].benign++
	}
}

// prefix converts a key back to the prefix it stands for.
func (ic *IPCentric) prefix(k words) netaddr.Prefix {
	a := k.addr6()
	if ic.Family == netaddr.IPv4 {
		a = netaddr.AddrFrom4(uint32(k.lo))
	}
	return netaddr.PrefixFrom(a, ic.Length)
}

// Prefixes returns the number of distinct prefixes observed.
func (ic *IPCentric) Prefixes() int { return len(ic.pops) }

// Merge folds another analyzer's state into ic, deduplicating (user,
// prefix) pairs. Both must use the same family and length. Merge is
// exact for any split of the stream, user-disjoint or not.
func (ic *IPCentric) Merge(other *IPCentric) {
	for j, uid := range other.users.uids {
		ol := &other.users.state[j]
		u := ic.users.get(uid)
		for _, s := range other.keys.keys(ol) {
			if _, added := ic.keys.insert(u, s.k, s.v); added {
				ic.count(s.k, s.v)
			}
		}
	}
}

// UsersPerPrefix returns the histogram of total users (benign + abusive)
// per prefix (Figures 7 and 9).
func (ic *IPCentric) UsersPerPrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, pop := range ic.pops {
		h.Add(int(pop.benign + pop.abusive))
	}
	return h
}

// BenignPerPrefix returns the histogram of benign users per prefix.
func (ic *IPCentric) BenignPerPrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, pop := range ic.pops {
		h.Add(int(pop.benign))
	}
	return h
}

// AbusivePerAbusivePrefix returns the histogram of abusive accounts per
// prefix, over prefixes with at least one abusive account (Figures 8 and
// 10a).
func (ic *IPCentric) AbusivePerAbusivePrefix() *stats.IntHist {
	h := stats.NewIntHist(64)
	for _, pop := range ic.pops {
		if pop.abusive > 0 {
			h.Add(int(pop.abusive))
		}
	}
	return h
}

// BenignPerAbusivePrefix returns the histogram of benign users per
// prefix, over prefixes with at least one abusive account (Figures 8 and
// 10b).
func (ic *IPCentric) BenignPerAbusivePrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, pop := range ic.pops {
		if pop.abusive > 0 {
			h.Add(int(pop.benign))
		}
	}
	return h
}

// PrefixesWithMoreThan counts prefixes whose total user population
// strictly exceeds n.
func (ic *IPCentric) PrefixesWithMoreThan(n int) int {
	count := 0
	for _, pop := range ic.pops {
		if int(pop.benign+pop.abusive) > n {
			count++
		}
	}
	return count
}

// AbusivePrefixesWithMoreThan counts prefixes whose abusive population
// strictly exceeds n.
func (ic *IPCentric) AbusivePrefixesWithMoreThan(n int) int {
	count := 0
	for _, pop := range ic.pops {
		if int(pop.abusive) > n {
			count++
		}
	}
	return count
}

// HeavyPrefix is a prefix ranked by its user population.
type HeavyPrefix struct {
	Prefix         netaddr.Prefix
	Users, Abusive int
}

// TopPrefixes returns the k most user-populated prefixes, descending.
func (ic *IPCentric) TopPrefixes(k int) []HeavyPrefix {
	tops := make([]HeavyPrefix, 0, len(ic.pops))
	for _, pop := range ic.pops {
		tops = append(tops, HeavyPrefix{Prefix: ic.prefix(pop.k), Users: int(pop.benign + pop.abusive), Abusive: int(pop.abusive)})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Users != tops[j].Users {
			return tops[i].Users > tops[j].Users
		}
		return tops[i].Prefix.Addr().Less(tops[j].Prefix.Addr())
	})
	if k < len(tops) {
		tops = tops[:k]
	}
	return tops
}

// HeavyConcentration summarizes where heavily populated prefixes live:
// which ASNs own them and how many carry structured (gateway-style)
// interface identifiers — the basis for the paper's finding that heavy
// IPv6 addresses are predictable (§6.1.3).
type HeavyConcentration struct {
	// Heavy is the number of prefixes above the threshold.
	Heavy int
	// TopASN and TopASNShare identify the dominant owner.
	TopASN      netmodel.ASN
	TopASNShare float64
	// ASNs is the number of distinct owning ASNs.
	ASNs int
	// StructuredShare is the fraction of heavy prefixes whose base
	// address has a structured IID (only meaningful at length 128).
	StructuredShare float64
}

// ConcentrationAbove computes the heavy-prefix concentration for
// prefixes with more than n users, attributing ownership via asnOf.
func (ic *IPCentric) ConcentrationAbove(n int, asnOf func(netaddr.Addr) netmodel.ASN) HeavyConcentration {
	var hc HeavyConcentration
	perASN := make(map[netmodel.ASN]int)
	structured := 0
	for _, pop := range ic.pops {
		if int(pop.benign+pop.abusive) <= n {
			continue
		}
		p := ic.prefix(pop.k)
		hc.Heavy++
		if asnOf != nil {
			perASN[asnOf(p.Addr())]++
		}
		if netaddr.IsStructuredIID(p.Addr()) {
			structured++
		}
	}
	hc.ASNs = len(perASN)
	best := 0
	for asn, c := range perASN {
		if c > best || (c == best && asn < hc.TopASN) {
			best = c
			hc.TopASN = asn
		}
	}
	if hc.Heavy > 0 && best > 0 {
		hc.TopASNShare = float64(best) / float64(hc.Heavy)
	}
	if hc.Heavy > 0 {
		hc.StructuredShare = float64(structured) / float64(hc.Heavy)
	}
	return hc
}
