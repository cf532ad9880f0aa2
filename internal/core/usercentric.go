// Package core implements the paper's contribution: user-level analysis
// of IPv6 (and IPv4) behavior. It provides user-centric analyzers
// (addresses, prefixes and lifespans per user — §5), IP-centric
// analyzers (user populations per address and prefix — §6), the
// actioning/ROC simulator (§7.1), outlier characterization (RQ3), and
// the security-policy advisor (§7.2).
//
// All analyzers are streaming: they consume telemetry.Observation values
// through Observe and answer queries afterwards. They deduplicate
// (entity, address) pairs internally, so feeding the same observation
// twice is harmless.
//
// The analyzers the CLI runs — UserCentric, IPCentric and
// ChurnAttribution — hold that state per user: a dense user table with
// a last-user memo, and each user's addresses or prefixes in a shared
// key arena (see userstate.go). The layout is fastest when each user's
// records arrive together, as the generators write them, but its
// results do not depend on record order or on how the stream is split
// across replicas.
package core

import (
	"sort"

	"userv6/internal/netaddr"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// pairKey identifies a (user, prefix-or-address) pair.
type pairKey struct {
	uid uint64
	pfx netaddr.Prefix
}

// UserCentric accumulates per-user address diversity over its feeding
// window: the engine behind Figures 2, 3 and 4 and the §4.4 client
// address patterns. The zero value is ready to use.
//
// Each user's distinct addresses are two key lists, IPv4 and IPv6, in
// per-family arenas; an address already in the user's list is a
// duplicate, so no global (user, address) set is kept.
type UserCentric struct {
	users  userTable[userAddrs]
	v4, v6 keyArena[struct{}]
	// abusiveOnly restricts accounting to abusive or benign entities.
	abusiveOnly, benignOnly bool
}

// userAddrs holds one user's deduplicated addresses, per family.
type userAddrs struct {
	v4, v6 keyList
}

// NewUserCentric returns an analyzer accepting every entity.
func NewUserCentric() *UserCentric { return &UserCentric{} }

// NewUserCentricFor returns an analyzer restricted to abusive accounts
// (abusive = true) or benign users (abusive = false).
func NewUserCentricFor(abusive bool) *UserCentric {
	return &UserCentric{abusiveOnly: abusive, benignOnly: !abusive}
}

// Observe feeds one observation.
func (uc *UserCentric) Observe(o telemetry.Observation) {
	if (uc.abusiveOnly && !o.Abusive) || (uc.benignOnly && o.Abusive) {
		return
	}
	if !o.Addr.IsValid() {
		return
	}
	u := uc.users.get(o.UserID)
	hi, lo := o.Addr.Words()
	if o.Addr.Is4() {
		uc.v4.insert(&u.v4, words{hi, lo}, struct{}{})
	} else {
		uc.v6.insert(&u.v6, words{hi, lo}, struct{}{})
	}
}

// Users returns the number of distinct entities observed.
func (uc *UserCentric) Users() int { return uc.users.len() }

// Merge folds another analyzer's state into uc, deduplicating pairs the
// two saw in common. Both analyzers must use the same restriction. Merge
// is exact for any split of the stream, user-disjoint or not, which is
// what sharded and fused parallel analysis rely on.
func (uc *UserCentric) Merge(other *UserCentric) {
	for j, uid := range other.users.uids {
		ou := &other.users.state[j]
		u := uc.users.get(uid)
		for _, s := range other.v4.keys(&ou.v4) {
			uc.v4.insert(&u.v4, s.k, struct{}{})
		}
		for _, s := range other.v6.keys(&ou.v6) {
			uc.v6.insert(&u.v6, s.k, struct{}{})
		}
	}
}

// count returns u's number of distinct addresses of the family.
func (u *userAddrs) count(fam netaddr.Family) int {
	if fam == netaddr.IPv6 {
		return int(u.v6.n)
	}
	return int(u.v4.n)
}

// prefixCount returns the number of distinct prefixes of the given
// length among u's IPv6 addresses, using set as scratch.
func (uc *UserCentric) prefixCount(u *userAddrs, length int, set map[netaddr.Prefix]struct{}) int {
	clear(set)
	for _, s := range uc.v6.keys(&u.v6) {
		set[netaddr.PrefixFrom(s.k.addr6(), length)] = struct{}{}
	}
	return len(set)
}

// AddrsPerUser returns the histogram of distinct addresses per user for
// one family, counting only users that have at least one address of that
// family (matching the paper's per-protocol user populations).
func (uc *UserCentric) AddrsPerUser(fam netaddr.Family) *stats.IntHist {
	h := stats.NewIntHist(64)
	for i := range uc.users.state {
		if n := uc.users.state[i].count(fam); n > 0 {
			h.Add(n)
		}
	}
	return h
}

// SpanShare reports, for each requested IPv6 prefix length, the fraction
// of IPv6 users whose addresses span exactly 1, at most 2, and at most 3
// distinct prefixes of that length (Figure 4).
type SpanShare struct {
	Length                int
	One, AtMost2, AtMost3 float64
}

// PrefixSpans computes Figure 4's curves for the given prefix lengths.
func (uc *UserCentric) PrefixSpans(lengths []int) []SpanShare {
	out := make([]SpanShare, len(lengths))
	for i, l := range lengths {
		var one, two, three, total int
		set := make(map[netaddr.Prefix]struct{}, 16)
		for j := range uc.users.state {
			u := &uc.users.state[j]
			if u.v6.n == 0 {
				continue
			}
			total++
			switch n := uc.prefixCount(u, l, set); {
			case n == 1:
				one++
				two++
				three++
			case n == 2:
				two++
				three++
			case n == 3:
				three++
			}
		}
		s := SpanShare{Length: l}
		if total > 0 {
			s.One = float64(one) / float64(total)
			s.AtMost2 = float64(two) / float64(total)
			s.AtMost3 = float64(three) / float64(total)
		}
		out[i] = s
	}
	return out
}

// PrefixesPerUser returns the histogram of distinct prefixes of the
// given length per IPv6 user (used by the outlier analyses in §5.2.3).
func (uc *UserCentric) PrefixesPerUser(length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	set := make(map[netaddr.Prefix]struct{}, 16)
	for i := range uc.users.state {
		if u := &uc.users.state[i]; u.v6.n > 0 {
			h.Add(uc.prefixCount(u, length, set))
		}
	}
	return h
}

// TopUser is a user ranked by address count.
type TopUser struct {
	UID   uint64
	Count int
}

// TopUsersByAddrs returns the k users with the most distinct addresses
// of the family, descending.
func (uc *UserCentric) TopUsersByAddrs(fam netaddr.Family, k int) []TopUser {
	tops := make([]TopUser, 0, uc.users.len())
	for i, uid := range uc.users.uids {
		if n := uc.users.state[i].count(fam); n > 0 {
			tops = append(tops, TopUser{UID: uid, Count: n})
		}
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Count != tops[j].Count {
			return tops[i].Count > tops[j].Count
		}
		return tops[i].UID < tops[j].UID
	})
	if k < len(tops) {
		tops = tops[:k]
	}
	return tops
}

// UsersWithMoreThan counts users with strictly more than n distinct
// addresses of the family.
func (uc *UserCentric) UsersWithMoreThan(fam netaddr.Family, n int) int {
	count := 0
	for i := range uc.users.state {
		if uc.users.state[i].count(fam) > n {
			count++
		}
	}
	return count
}

// ClientAddrPatterns summarizes §4.4: the share of IPv6 users seen on
// transition-protocol addresses and on EUI-64 (MAC-embedding) addresses,
// and among multi-address EUI-64 users, the share that reuse one IID.
type ClientAddrPatterns struct {
	V6Users         int
	TeredoShare     float64
	SixToFourShare  float64
	EUI64Share      float64
	EUI64IIDReuse   float64 // among EUI-64 users with >= 2 addresses
	StructuredShare float64
	RandomIIDShare  float64
}

// AddrPatterns computes the §4.4 summary over the observed window.
func (uc *UserCentric) AddrPatterns() ClientAddrPatterns {
	var p ClientAddrPatterns
	var teredo, sixToFour, eui, structured, random int
	var euiMulti, euiReuse int
	for i := range uc.users.state {
		u := &uc.users.state[i]
		if u.v6.n == 0 {
			continue
		}
		p.V6Users++
		var hasTeredo, has6to4, hasEUI, hasStruct, hasRandom bool
		iids := make(map[uint64]struct{}, 4)
		euiAddrs := 0
		for _, s := range uc.v6.keys(&u.v6) {
			a := s.k.addr6()
			switch netaddr.Classify(a) {
			case netaddr.KindTeredo:
				hasTeredo = true
			case netaddr.Kind6to4:
				has6to4 = true
			case netaddr.KindEUI64:
				hasEUI = true
				euiAddrs++
				iids[a.IID()] = struct{}{}
			case netaddr.KindStructuredIID:
				hasStruct = true
			default:
				hasRandom = true
			}
		}
		if hasTeredo {
			teredo++
		}
		if has6to4 {
			sixToFour++
		}
		if hasEUI {
			eui++
			if u.v6.n >= 2 && euiAddrs >= 2 {
				euiMulti++
				if len(iids) == 1 {
					euiReuse++
				}
			}
		}
		if hasStruct {
			structured++
		}
		if hasRandom {
			random++
		}
	}
	if p.V6Users > 0 {
		n := float64(p.V6Users)
		p.TeredoShare = float64(teredo) / n
		p.SixToFourShare = float64(sixToFour) / n
		p.EUI64Share = float64(eui) / n
		p.StructuredShare = float64(structured) / n
		p.RandomIIDShare = float64(random) / n
	}
	if euiMulti > 0 {
		p.EUI64IIDReuse = float64(euiReuse) / float64(euiMulti)
	}
	return p
}
