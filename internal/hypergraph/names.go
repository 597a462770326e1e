package hypergraph

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
)

// ErrNameSpace reports names whose bytes on one side of a hypergraph
// would pass the int32 offset bound of its name table.
var ErrNameSpace = errors.New("hypergraph: names overflow the int32 offset space")

// maxNameBytes is the most name bytes one side may hold, the bound of
// the table's int32 offsets.  Tests lower it.
var maxNameBytes = math.MaxInt32

// nameSeed seeds every name index.  One seed per process gives two
// tables over the same names the same index, so hypergraphs still
// compare by content under reflect.DeepEqual.
var nameSeed = maphash.MakeSeed()

// minSlots is the smallest index a table gets.
const minSlots = 16

// table is one side's names in the layout of the store's name blobs:
// every name in one string, name i ending at ends[i] and starting
// where name i-1 ends (at 0 for i = 0).  idx is an open-addressing
// hash index over them: a power-of-two array of slots, each 0 (empty)
// or a name's ID plus one, probed linearly from the name's maphash and
// never more than half full.  A nil idx means no index has been built.
type table struct {
	s    string
	ends []int32
	idx  []int32
}

// bounds returns the byte range of name i in t.s.
func (t *table) bounds(i int) (lo, hi int32) {
	if i > 0 {
		lo = t.ends[i-1]
	}
	return lo, t.ends[i]
}

// name returns name i, a substring of t.s.
func (t *table) name(i int) string {
	lo, hi := t.bounds(i)
	return t.s[lo:hi]
}

// find walks the probe sequence of key, whose maphash is h, and returns
// the slot holding key with its ID, or the first empty slot with ID -1.
// Less than half the slots are taken, so the walk ends at an empty one.
func find[K string | []byte](t *table, key K, h uint64) (slot, id int) {
	mask := uint64(len(t.idx) - 1)
	slot = int(h & mask)
	for range len(t.idx) {
		e := t.idx[slot]
		if e == 0 {
			return slot, -1
		}
		if t.name(int(e-1)) == string(key) {
			return slot, int(e - 1)
		}
		slot = int(uint64(slot+1) & mask)
	}
	return -1, -1
}

// room returns s with room for n more elements.  When it must grow,
// it doubles the capacity: append alone grows a large slice by about a
// quarter, which over a long read allocates some five times its final
// size.
func room[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make(S, len(s), len(s)+max(n, cap(s)))
	copy(grown, s)
	return grown
}

// slotsFor returns the index size for n names: the smallest power of
// two, at least minSlots, that keeps n names at most half of it.
func slotsFor(n int) int {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	return size
}

// reindex builds an index of the given size over every name.  With
// skipEmpty (the hyperedge side, where the empty name means unnamed)
// the empty name is left out; otherwise its last ID wins.  Of a
// repeated non-empty name the first ID stays indexed, and the first
// repeat is returned as (dup, prev) with prev its first ID; (-1, -1)
// when every name is unique.
func (t *table) reindex(size int, skipEmpty bool) (dup, prev int) {
	dup, prev = -1, -1
	t.idx = make([]int32, size)
	//hyperplexvet:ignore budgettick bounded: one probe walk per name already stored, and the reader charged those names as it read them
	for id := range t.ends {
		key := t.name(id)
		if key == "" && skipEmpty {
			continue
		}
		slot, old := find(t, key, maphash.String(nameSeed, key))
		switch {
		case old < 0 || key == "":
			t.idx[slot] = int32(id + 1)
		case dup < 0:
			dup, prev = id, old
		}
	}
	return dup, prev
}

// arena is a table that grows: one side of a Builder.  Names are
// written to buf, which never rewrites a byte it has handed out in a
// string, so t.s stays valid, and a hypergraph built earlier may share
// it, while the arena goes on growing.
type arena struct {
	table
	buf strings.Builder
}

// lookup finds key, whose maphash is h, first growing the index so
// that adding one more name keeps it at most half full.  skipEmpty is
// reindex's.
func lookup[K string | []byte](a *arena, key K, h uint64, skipEmpty bool) (slot, id int) {
	if 2*(len(a.ends)+1) > len(a.idx) {
		a.reindex(slotsFor(len(a.ends)+1), skipEmpty)
	}
	return find(&a.table, key, h)
}

// push appends name key, unindexed, and returns its ID.  A name that
// would carry the side past maxNameBytes is not added.
func push[K string | []byte](a *arena, key K) (int, error) {
	n := len(a.s)
	if len(key) > maxNameBytes-n {
		return -1, fmt.Errorf("%w: a %d-byte name after %d bytes of names", ErrNameSpace, len(key), n)
	}
	// Grow doubles the buffer when it must grow, where Write alone
	// would grow it as append does.
	a.buf.Grow(len(key))
	switch k := any(key).(type) {
	case string:
		a.buf.WriteString(k)
	case []byte:
		a.buf.Write(k)
	}
	a.s = a.buf.String()
	n = len(a.s)
	a.ends = append(room(a.ends, 1), int32(n))
	return len(a.ends) - 1, nil
}

// freeze turns the arena into a hypergraph's name table, index
// included: an arena that never looked a name up, whose names are all
// empty hyperedge names, is indexed here.  With copies the arena may
// go on growing; without them the table shares the arena's arrays,
// and the arena must not be used again.
func (a *arena) freeze(skipEmpty, copies bool) *names {
	t := a.table
	if copies {
		t.ends = append([]int32(nil), t.ends...)
		t.idx = append([]int32(nil), t.idx...)
	}
	if t.idx == nil {
		t.reindex(slotsFor(len(t.ends)), skipEmpty)
	}
	return &names{table: t, skipEmpty: skipEmpty}
}

// names is one side's name table in a Hypergraph, indexed when it is
// built, so a Hypergraph shared read-only across goroutines only reads
// it.  skipEmpty marks the hyperedge side.
type names struct {
	table
	skipEmpty bool
}

// id returns the ID of the named entry, or (0, false).
func (n *names) id(key string) (int, bool) {
	if _, id := find(&n.table, key, maphash.String(nameSeed, key)); id >= 0 {
		return id, true
	}
	return 0, false
}

// get returns name i, or "" for an unnamed side.
func (n *names) get(i int) string {
	if n == nil {
		return ""
	}
	return n.name(i)
}

// blobNames wraps one side of a store file's names, an (n+1)-entry
// offset array from 0 and the blob it indexes, as a table: the offsets
// are aliased and the blob is copied into one string.  Every name is
// indexed at once; a repeated non-empty name is an error that calls an
// entry a kind and several entries plural.
func blobNames(kind, plural string, n int, off []int32, blob []byte, skipEmpty bool) (*names, error) {
	if off == nil {
		return nil, nil
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("hypergraph: %d %s name offsets for %d %s", len(off), kind, n, plural)
	}
	if off[0] != 0 || int(off[n]) != len(blob) {
		return nil, fmt.Errorf("hypergraph: %s name offsets span [%d,%d), want the %d-byte blob", kind, off[0], off[n], len(blob))
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("hypergraph: %s name offsets not monotone at %d", kind, i)
		}
	}
	t := &names{table: table{s: string(blob), ends: off[1:]}, skipEmpty: skipEmpty}
	if dup, prev := t.reindex(slotsFor(n), skipEmpty); dup >= 0 {
		return nil, fmt.Errorf("hypergraph: duplicate %s name %q (%s %d and %d)", kind, t.name(dup), plural, prev, dup)
	}
	return t, nil
}
