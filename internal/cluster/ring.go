// Package cluster scales the single-node engine out to a set of peer nodes
// behind one Engine-shaped front: a consistent-hash ring with virtual nodes
// places every flow key on an owner, a Router fans queries and updates to
// the right peers over netproto, hot keys (tracked with a CU sketch) are
// replicated to successor nodes, and membership changes move only the
// affected hash ranges between nodes as range-filtered snapshot streams
// with a dual-read window masking the handoff.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/p4lru/p4lru/internal/hashing"
)

// Ring is an immutable consistent-hash ring: each member contributes
// VNodes points on the 64-bit hash circle, and a key at position h belongs
// to the member owning the first point clockwise from h (wrapping). Rings
// are rebuilt wholesale on membership change and swapped atomically, so
// every method is safe for concurrent use and allocation behavior is
// documented per method.
type Ring struct {
	hash    hashing.Hash
	vnodes  int
	members []string // sorted
	points  []point  // sorted by pos
}

// point is one virtual node: a position on the circle and the index of the
// member that owns it.
type point struct {
	pos   uint64
	owner int32
}

// NewRing builds a ring of members (order-insensitive, deduplicated) with
// vnodes virtual nodes each. The seed must match across every router and
// node server in one cluster — it derives both the key-position hash and
// the vnode positions, and a mismatch would make peers disagree about which
// keys a hash arc covers.
func NewRing(seed uint64, vnodes int, members []string) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if _, dup := seen[m]; !dup {
			seen[m] = struct{}{}
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		hash:    hashing.New(seed),
		vnodes:  vnodes,
		members: uniq,
		points:  make([]point, 0, len(uniq)*vnodes),
	}
	buf := make([]byte, 0, 64)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], m...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, point{pos: r.hash.Bytes(buf), owner: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// A position collision between two members' vnodes is ~impossible
		// at 64 bits, but resolve it deterministically by member order so
		// every ring built from the same inputs agrees.
		return r.points[i].owner < r.points[j].owner
	})
	return r
}

// Members returns the sorted member list (shared slice — do not mutate).
func (r *Ring) Members() []string { return r.members }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Pos maps a key to its ring position.
func (r *Ring) Pos(key uint64) uint64 { return r.hash.Uint64(key) }

// ceil returns the index of the first point with pos ≥ h, wrapping to 0.
func (r *Ring) ceil(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// OwnerAt returns the member owning ring position h. Allocation-free —
// this is the router's per-query path.
func (r *Ring) OwnerAt(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.ceil(h)].owner]
}

// Owner returns the member owning key.
func (r *Ring) Owner(key uint64) string { return r.OwnerAt(r.Pos(key)) }

// ReplicasAt returns up to n distinct members for ring position h: the
// owner first, then successors walking clockwise. Allocates the result; the
// router's per-op path reads the same sets from replicaTable instead.
func (r *Ring) ReplicasAt(h uint64, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	idx := r.appendReplicas(nil, r.ceil(h), min(n, len(r.members)))
	out := make([]string, len(idx))
	for i, o := range idx {
		out[i] = r.members[o]
	}
	return out
}

// appendReplicas appends the Members() indexes of the first n distinct
// owners met walking clockwise from point i. n must not exceed Size().
func (r *Ring) appendReplicas(out []int32, i, n int) []int32 {
	base := len(out)
	for steps := 0; steps < len(r.points) && len(out)-base < n; steps++ {
		if o := r.points[i].owner; !slices.Contains(out[base:], o) {
			out = append(out, o)
		}
		if i++; i == len(r.points) {
			i = 0
		}
	}
	return out
}

// replicaTable precomputes every point's replica set: the Members()
// indexes of ReplicasAt(points[p].pos, n), stored at [p*stride, (p+1)*stride)
// with stride = min(n, Size()). Built once per membership swap, it turns the
// per-op replica walk into one slice expression.
func (r *Ring) replicaTable(n int) (table []int32, stride int) {
	stride = min(n, len(r.members))
	if stride < 1 {
		return nil, 0
	}
	table = make([]int32, 0, len(r.points)*stride)
	for p := range r.points {
		table = r.appendReplicas(table, p, stride)
	}
	return table, stride
}

// Replicas returns up to n distinct members for key, owner first.
func (r *Ring) Replicas(key uint64, n int) []string { return r.ReplicasAt(r.Pos(key), n) }

// arcContains reports whether ring position h falls in the half-open arc
// (from, to], wrapping through zero when from ≥ to; a degenerate arc with
// from == to covers the whole circle.
func arcContains(a [2]uint64, h uint64) bool {
	from, to := a[0], a[1]
	if from < to {
		return from < h && h <= to
	}
	return h > from || h <= to
}

// arcsContain reports whether any arc covers h.
func arcsContain(arcs [][2]uint64, h uint64) bool {
	for _, a := range arcs {
		if arcContains(a, h) {
			return true
		}
	}
	return false
}

// Transfer is one migration assignment from a membership change: Dest must
// receive the keys whose positions fall in Arcs, and any member of Sources
// (old replica holders, old owner first) can stream them.
type Transfer struct {
	Dest    string
	Sources []string
	Arcs    [][2]uint64
}

// Plan computes the migrations a membership change requires: for every
// elementary arc of the circle (delimited by the union of both rings'
// points), any member that is in the new ring's replica set but not the
// old one must fetch that arc from the old holders. Only affected arcs
// appear — the consistent-hash guarantee that a join or leave moves
// ~1/N of the circle shows up here as a short transfer list.
//
// replicas is the total copy count (owner included, min 1). Old holders
// that are known dead are the caller's problem: filter Transfer.Sources
// before executing.
func Plan(old, next *Ring, replicas int) []Transfer {
	if next == nil || len(next.points) == 0 || old == nil || len(old.points) == 0 {
		return nil // bootstrap or shutdown: nothing to copy from / to
	}
	if replicas < 1 {
		replicas = 1
	}

	// The union of both rings' point positions partitions the circle into
	// arcs on which both replica sets are constant.
	cuts := make([]uint64, 0, len(old.points)+len(next.points))
	for _, p := range old.points {
		cuts = append(cuts, p.pos)
	}
	for _, p := range next.points {
		cuts = append(cuts, p.pos)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	cuts = dedupeU64(cuts)

	type destKey struct {
		dest    string
		sources string // "\x00"-joined, preserves preference order
	}
	grouped := make(map[destKey]*Transfer)
	var order []destKey

	for i := range cuts {
		to := cuts[i]
		from := cuts[(i+len(cuts)-1)%len(cuts)] // predecessor, wrapping
		// Probe at the arc's inclusive right endpoint: every position in
		// (from, to] resolves to the same replica sets.
		oldSet := old.ReplicasAt(to, replicas)
		newSet := next.ReplicasAt(to, replicas)
		for _, dest := range newSet {
			if containsStr(oldSet, dest) {
				continue
			}
			k := destKey{dest: dest, sources: joinKey(oldSet)}
			t := grouped[k]
			if t == nil {
				t = &Transfer{Dest: dest, Sources: oldSet}
				grouped[k] = t
				order = append(order, k)
			}
			// Coalesce with the previous arc when contiguous.
			if n := len(t.Arcs); n > 0 && t.Arcs[n-1][1] == from {
				t.Arcs[n-1][1] = to
			} else {
				t.Arcs = append(t.Arcs, [2]uint64{from, to})
			}
		}
	}

	out := make([]Transfer, 0, len(order))
	for _, k := range order {
		out = append(out, *grouped[k])
	}
	return out
}

// dedupeU64 removes adjacent duplicates from a sorted slice, in place.
func dedupeU64(s []uint64) []uint64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func joinKey(s []string) string {
	n := 0
	for _, x := range s {
		n += len(x) + 1
	}
	b := make([]byte, 0, n)
	for _, x := range s {
		b = append(b, x...)
		b = append(b, 0)
	}
	return string(b)
}

// String describes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{%d members, %d vnodes}", len(r.members), r.vnodes)
}
