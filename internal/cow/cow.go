// Package cow provides chunked copy-on-write arrays: the storage behind the
// mutable per-node state of the data graph and of the index graph, so a
// snapshot copy costs chunk-pointer tables and a mutation copies only the
// chunks it touches. It is the per-node analogue of internal/nodeset's
// structural sharing for sets.
//
// Elements live in fixed-size chunks of chunkSize values behind a table of
// chunk pointers. Clone copies only the table, so both arrays then point at
// the same chunks.
//
// Ownership rule: a chunk is written in place only by the array that
// allocated it, and only until that array is cloned. Every chunk records the
// owner token of the array generation that allocated it; Clone revokes the
// receiver's token with an atomic store (never a plain field write), so it is
// race-free on an array that concurrent readers are using. After a Clone
// neither side holds the shared chunks' token: the first write to a chunk on
// either side copies it, and the copy is owned by the writer's fresh token.
// Mutating either side after Clone therefore leaves the other bit-identical.
//
// An Array is not safe for concurrent mutation; concurrent reads (and
// concurrent Clones, which only read and revoke) are.
package cow

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// chunkShift fixes the chunk size at 2^chunkShift elements. 256 keeps the
// copy a single-edge commit pays to a few KiB per touched chunk, while the
// chunk table a Clone copies stays under 1% of the element count.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// owner is the write token of one array generation. Its only state is the
// revocation flag, so distinct tokens are distinct allocations.
type owner struct{ shared atomic.Bool }

type chunk[T any] struct {
	own *owner
	v   [chunkSize]T
}

// Array is a dense, append-only-growable array of T with copy-on-write
// chunks. The zero value is an empty array ready to use.
type Array[T any] struct {
	chunks []*chunk[T]
	n      int
	own    *owner
}

// Make returns an array of n zero values, all chunks owned by the result.
func Make[T any](n int) Array[T] {
	a := Array[T]{n: n, own: new(owner)}
	a.chunks = make([]*chunk[T], (n+chunkMask)>>chunkShift)
	for i := range a.chunks {
		a.chunks[i] = &chunk[T]{own: a.own}
	}
	return a
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return a.n }

// At returns element i. Indices in [Len, capacity of the last chunk) read
// the zero value; callers range-check where that matters.
func (a *Array[T]) At(i int) T { return a.chunks[i>>chunkShift].v[i&chunkMask] }

// Set stores v at index i (0 <= i < Len), copying i's chunk first if the
// array does not own it.
func (a *Array[T]) Set(i int, v T) {
	c, _ := a.writable(i >> chunkShift)
	c.v[i&chunkMask] = v
}

// Append adds v at index Len.
func (a *Array[T]) Append(v T) {
	c, _ := a.grow()
	c.v[(a.n-1)&chunkMask] = v
}

// Clone returns an array with the same contents sharing every chunk with
// the receiver, and revokes the receiver's ownership of them.
func (a *Array[T]) Clone() Array[T] {
	if a.own != nil {
		a.own.shared.Store(true)
	}
	return Array[T]{chunks: slices.Clone(a.chunks), n: a.n}
}

// claim gives the array a live token if it has none or its token was
// revoked by a Clone.
func (a *Array[T]) claim() {
	if a.own == nil || a.own.shared.Load() {
		a.own = new(owner)
	}
}

// writable returns chunk ci ready for in-place writes, reporting whether it
// had to be copied from a shared chunk.
func (a *Array[T]) writable(ci int) (*chunk[T], bool) {
	a.claim()
	c := a.chunks[ci]
	if c.own == a.own {
		return c, false
	}
	cp := &chunk[T]{own: a.own, v: c.v}
	a.chunks[ci] = cp
	return cp, true
}

// grow extends the array by one zero-valued slot and returns its chunk
// ready for writing, reporting whether that chunk was copied.
func (a *Array[T]) grow() (*chunk[T], bool) {
	ci := a.n >> chunkShift
	a.n++
	if ci == len(a.chunks) {
		a.claim()
		c := &chunk[T]{own: a.own}
		a.chunks = append(a.chunks, c)
		return c, false
	}
	return a.writable(ci)
}

// Rows is an array of rows (variable-length slices): the adjacency lists of
// a graph, or values aligned with them. Insert, Remove and Contains treat a
// row as a strictly ascending set; InsertAt, DeleteAt and SetAt edit it by
// position. Rows handed out by At are never written again once another
// array can reach them: a chunk copied on write has every row capped at its
// length, so in an owned chunk a row with spare capacity is private to it
// and is edited in place, while a capped row is treated as shared and
// replaced by a fresh one.
type Rows[E cmp.Ordered] struct{ a Array[[]E] }

// MakeRows returns n empty rows.
func MakeRows[E cmp.Ordered](n int) Rows[E] { return Rows[E]{Make[[]E](n)} }

// Len returns the number of rows.
func (r *Rows[E]) Len() int { return r.a.n }

// At returns row i. The slice is shared and must not be mutated.
func (r *Rows[E]) At(i int) []E { return r.a.At(i) }

// Clone returns rows sharing every chunk (and row) with the receiver; see
// Array.Clone.
func (r *Rows[E]) Clone() Rows[E] { return Rows[E]{r.a.Clone()} }

// Append adds an empty row.
func (r *Rows[E]) Append() {
	if c, copied := r.a.grow(); copied {
		capRows(c)
	}
}

// Contains reports whether the ascending row i holds e.
func (r *Rows[E]) Contains(i int, e E) bool {
	_, found := slices.BinarySearch(r.a.At(i), e)
	return found
}

// Insert adds e to the ascending row i, keeping it ascending, and reports
// whether e was absent.
func (r *Rows[E]) Insert(i int, e E) bool {
	j, found := slices.BinarySearch(r.a.At(i), e)
	if !found {
		r.InsertAt(i, j, e)
	}
	return !found
}

// Remove deletes e from the ascending row i and reports whether it was
// present.
func (r *Rows[E]) Remove(i int, e E) bool {
	j, found := slices.BinarySearch(r.a.At(i), e)
	if found {
		r.DeleteAt(i, j)
	}
	return found
}

// InsertAt inserts e at position j of row i.
func (r *Rows[E]) InsertAt(i, j int, e E) {
	p := r.slot(i)
	// A row with spare capacity is private and shifts in place; a full
	// (possibly shared) row makes slices.Insert reallocate.
	*p = slices.Insert(*p, j, e)
}

// DeleteAt removes position j of row i.
func (r *Rows[E]) DeleteAt(i, j int) {
	p := r.slot(i)
	row := *p
	if len(row) < cap(row) {
		*p = slices.Delete(row, j, j+1)
		return
	}
	// Possibly shared: copy around the hole. One spare slot marks the
	// fresh row private for the next in-place edit.
	fresh := make([]E, 0, len(row))
	*p = append(append(fresh, row[:j]...), row[j+1:]...)
}

// SetAt stores e at position j of row i.
func (r *Rows[E]) SetAt(i, j int, e E) {
	p := r.slot(i)
	if len(*p) == cap(*p) {
		// Possibly shared: write into a private copy with a spare slot.
		*p = append(make([]E, 0, len(*p)+1), *p...)
	}
	(*p)[j] = e
}

// slot returns a writable pointer to row i's header.
func (r *Rows[E]) slot(i int) *[]E {
	c, copied := r.a.writable(i >> chunkShift)
	if copied {
		capRows(c)
	}
	return &c.v[i&chunkMask]
}

// capRows caps every row of a freshly copied chunk at its length, so no
// write through the copy can reach the backing arrays it shares.
func capRows[E any](c *chunk[[]E]) {
	for j, row := range c.v {
		c.v[j] = row[:len(row):len(row)]
	}
}
