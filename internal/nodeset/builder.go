package nodeset

import "dkindex/internal/graph"

// Builder grows a set by strictly ascending appends — the label posting-list
// case, where ids arrive in node order during construction and splits. Chunks
// older than the one currently being filled are sealed into their final
// containers; the current chunk's low-16 values stay uncompressed in tail
// until the first append to a later chunk (or Seal) freezes them. View
// exposes the whole thing as a Set without copying sealed payloads.
type Builder struct {
	sealed  Set      // finished containers
	tailKey uint16   // chunk the tail belongs to
	tail    []uint16 // ascending low-16 values of the open chunk
	last    graph.NodeID
	view    Set  // cached View result
	dirty   bool // view must be rebuilt
}

// Append adds id, which must exceed every id appended so far. It panics on
// out-of-order input — postings are appended in node order by invariant.
func (b *Builder) Append(id graph.NodeID) {
	if id < 0 || (b.Len() > 0 && id <= b.last) {
		panic("nodeset: Builder.Append out of order")
	}
	k := key16(id)
	if len(b.tail) > 0 && k != b.tailKey {
		b.sealTail()
	}
	b.tailKey = k
	b.tail = append(b.tail, low16(id))
	b.last = id
	b.dirty = true
}

func (b *Builder) sealTail() {
	b.sealed.keys = append(b.sealed.keys, b.tailKey)
	b.sealed.cons = append(b.sealed.cons, makeContainerLows(b.tail))
	b.sealed.n += len(b.tail)
	// A fresh tail, not tail[:0]: clones may still share the old one.
	b.tail = nil
}

// Len returns the number of ids appended.
func (b *Builder) Len() int { return b.sealed.n + len(b.tail) }

// View returns the current contents as a Set. Sealed containers are shared;
// the open tail is encoded fresh. The returned Set is immutable: later
// Appends never mutate it (the sealed slices are extended with full-slice
// expressions so growth reallocates instead of aliasing).
func (b *Builder) View() Set {
	if !b.dirty {
		return b.view
	}
	s := Set{
		keys: b.sealed.keys[:len(b.sealed.keys):len(b.sealed.keys)],
		cons: b.sealed.cons[:len(b.sealed.cons):len(b.sealed.cons)],
		n:    b.sealed.n,
	}
	if len(b.tail) > 0 {
		s.keys = append(s.keys, b.tailKey)
		s.cons = append(s.cons, makeContainerLows(b.tail))
		s.n += len(b.tail)
	}
	b.view = s
	b.dirty = false
	return s
}

// Clone returns a builder with the same contents that shares every payload
// with b and copies none. Sealed containers are immutable; the clone's
// slices are capped at their length, so its first append reallocates, while
// b only ever appends past the clone's length (a sealed tail is replaced,
// never reused). Appends on either side stay invisible to the other.
func (b *Builder) Clone() Builder {
	return Builder{
		sealed: Set{
			keys: b.sealed.keys[:len(b.sealed.keys):len(b.sealed.keys)],
			cons: b.sealed.cons[:len(b.sealed.cons):len(b.sealed.cons)],
			n:    b.sealed.n,
		},
		tailKey: b.tailKey,
		tail:    b.tail[:len(b.tail):len(b.tail)],
		last:    b.last,
		view:    b.view,
		dirty:   b.dirty,
	}
}

// FromSet seeds a builder with an existing set's contents; subsequent
// appends must exceed the set's maximum. Container payloads are shared.
func FromSet(s Set) *Builder {
	b := &Builder{
		sealed: Set{
			keys: s.keys[:len(s.keys):len(s.keys)],
			cons: s.cons[:len(s.cons):len(s.cons)],
			n:    s.n,
		},
		view:  s,
		dirty: false,
	}
	if len(s.keys) > 0 {
		last := s.keys[len(s.keys)-1]
		base := graph.NodeID(uint32(last) << 16)
		s.cons[len(s.cons)-1].iterate(base, func(id graph.NodeID) bool {
			b.last = id
			return true
		})
	}
	return b
}

// AddStats accumulates the builder's physical layout into st; the open tail
// is accounted at two bytes per pending value.
func (b *Builder) AddStats(st *Stats) {
	b.sealed.AddStats(st)
	if len(b.tail) > 0 {
		st.SparseContainers++
		st.SparseBytes += len(b.tail) * 2
	}
}
