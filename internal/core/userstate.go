package core

import (
	"slices"

	"userv6/internal/netaddr"
)

// Per-user state shared by UserCentric, IPCentric and ChurnAttribution.
//
// Their (user, address-or-prefix) sets are held per user rather than in
// one global pair map: a userTable gives each user a dense index into a
// slab of per-user structs, and each user's keys live in a keyArena, one
// flat slice per key kind shared by all users. A record then costs a
// compare against the last user, a short linear scan of that user's
// keys, and an append, instead of several probes of million-entry maps
// keyed by padded structs.
//
// The layout exploits user-contiguous streams — writers emit each benign
// user's days together, so the last-user memo almost always hits and
// the user's key list sits at its arena's tail, growing in place — but
// does not rely on them: any order gives the same sets.

// scanLimit is the longest key list searched linearly. A list that grows
// past it gets a map index, so users with thousands of addresses
// (gateways, attackers) stay O(1) per record.
const scanLimit = 16

// words is an address or a masked prefix as its two 64-bit halves, in
// netaddr.Addr.Words form (an IPv4 value sits in lo with hi zero). It
// has no padding, so as a map key it hashes as one 16-byte run. The
// family and prefix length are implied by the analyzer and the list.
type words struct{ hi, lo uint64 }

// prefixWords returns a's prefix of length bits in words form.
func prefixWords(a netaddr.Addr, bits int) words {
	hi, lo := netaddr.PrefixFrom(a, bits).Addr().Words()
	return words{hi, lo}
}

// push appends v to s, doubling the capacity when s is full. append's
// own growth factor falls towards 1.25 for large slices, which would
// copy the million-slot slabs and arenas many times over.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 256))
	}
	return append(s, v)
}

// addr6 is the IPv6 address with words w.
func (w words) addr6() netaddr.Addr { return netaddr.AddrFrom6(w.hi, w.lo) }

// userTable assigns each user ID a dense index, in order of first
// sight, into a slab of per-user state U. It remembers the last user
// looked up, so a run of records for one user skips the map. The zero
// value is an empty table.
type userTable[U any] struct {
	idx   map[uint64]int32
	uids  []uint64
	state []U
	// last is the index of the last user looked up, plus one; zero
	// before the first lookup.
	last int32
}

// get returns uid's state, adding a zero one when uid is new. The
// pointer is valid until the next get.
func (t *userTable[U]) get(uid uint64) *U {
	if t.last > 0 && t.uids[t.last-1] == uid {
		return &t.state[t.last-1]
	}
	i, ok := t.idx[uid]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[uint64]int32)
		}
		i = int32(len(t.uids))
		t.idx[uid] = i
		t.uids = push(t.uids, uid)
		var zero U
		t.state = push(t.state, zero)
	}
	t.last = i + 1
	return &t.state[i]
}

// len returns the number of users in the table.
func (t *userTable[U]) len() int { return len(t.uids) }

// slot is one key with its value.
type slot[V any] struct {
	k words
	v V
}

// keyList is one user's keys in a keyArena: the segment
// slots[off:off+n] with room up to off+cap. Keys keep insertion order.
// Once n passes scanLimit, the arena's index ix-1 maps each key to its
// position in the segment, and lookups use it instead of scanning. A
// keyList holds no pointers, so the slabs of them are not scanned by
// the garbage collector.
type keyList struct {
	off, n, cap, ix int32
}

// keyArena holds the key lists of every user for one key kind in a
// single slice, so a new user costs no allocation. A list at the
// arena's tail grows in place; one elsewhere moves to the tail with
// twice its length reserved, abandoning its old segment (at most
// doubling the space, as slice growth does). indexes holds the maps of
// the lists that passed scanLimit.
type keyArena[V any] struct {
	slots   []slot[V]
	indexes []map[words]int32
}

// keys returns the list's slots.
func (a *keyArena[V]) keys(l *keyList) []slot[V] { return a.slots[l.off : l.off+l.n] }

// find returns k's position in the list, or -1.
func (a *keyArena[V]) find(l *keyList, k words) int32 {
	if l.n > scanLimit {
		if i, ok := a.indexes[l.ix-1][k]; ok {
			return i
		}
		return -1
	}
	for i, s := range a.keys(l) {
		if s.k == k {
			return int32(i)
		}
	}
	return -1
}

// insert adds k with value v unless the list holds k already. It
// returns a pointer to k's value, valid until the next insert, and
// whether k was added.
func (a *keyArena[V]) insert(l *keyList, k words, v V) (*V, bool) {
	if i := a.find(l, k); i >= 0 {
		return &a.slots[l.off+i].v, false
	}
	switch {
	case l.n < l.cap:
		a.slots[l.off+l.n] = slot[V]{k, v}
	case l.cap == 0 || int(l.off+l.cap) == len(a.slots):
		if l.cap == 0 {
			l.off = int32(len(a.slots))
		}
		a.slots = push(a.slots, slot[V]{k, v})
		l.cap++
	default:
		off := int32(len(a.slots))
		a.slots = append(a.slots, a.keys(l)...)
		a.slots = append(a.slots, slot[V]{k, v})
		a.slots = append(a.slots, make([]slot[V], l.n-1)...)
		l.off, l.cap = off, 2*l.n
	}
	l.n++
	switch {
	case l.n == scanLimit+1:
		index := make(map[words]int32, 2*l.n)
		for i, s := range a.keys(l) {
			index[s.k] = int32(i)
		}
		a.indexes = append(a.indexes, index)
		l.ix = int32(len(a.indexes))
	case l.n > scanLimit+1:
		a.indexes[l.ix-1][k] = l.n - 1
	}
	return &a.slots[l.off+l.n-1].v, true
}
