package rpe

import (
	"math/bits"

	"dkindex/internal/graph"
)

// setTable is an automaton compiled to word-parallel state sets, the only
// state representation evaluation uses. A state set is `words` uint64 words
// (bit q of word q/64 is state q), so an automaton of any size has one
// layout; the common one-word case simply has words == 1.
//
// Every transition is precomputed and already ε-closed: next names, for each
// state q and label slot s, the set stepOn({q}, s) — so stepping a single
// state is a table lookup and stepping a set is an OR of lookups. Labels map
// to slots through slotOf, sized to the largest label id the expression
// names; every other label id, including ids interned after compilation,
// shares the last slot, on which only wildcard transitions fire.
//
// Successor sets are stored once per state and distinct label it fires on:
// the slots where a state fires only its wildcard edges share one set. The
// tables thus hold states × slots indexes plus O(edges) sets of `words`
// words each; both grow with the square of the expression's length, which
// Parse bounds with MaxStates.
type setTable struct {
	words  int
	slots  int
	slotOf []int32 // label id -> slot, for ids below len(slotOf)
	accept []uint64
	// first[s] and next[q*slots+s] index sets (-1: no transition fires):
	// the start set's and state q's successors on slot s.
	first []int32
	next  []int32
	// sets[i*words:] is successor set i; accepting[i] reports whether it
	// holds an accepting state, so hot loops branch without scanning words.
	sets      []uint64
	accepting []bool
	// moves[q] reports whether any label steps state q somewhere; states
	// with only ε-edges can skip the scan of a node's edges.
	moves []bool
}

// newSetTable compiles n's transitions into a setTable. Every successor set
// comes from the NFA's own stepOn, so the tables agree with the reference
// evaluators by construction. stepOn runs once per slot for the start set
// and, for each state, once per distinct label on its edges plus once for
// its wildcard edges, each call O(states).
func newSetTable(n *NFA) *setTable {
	ns := n.NumStates()
	t := &setTable{words: (ns + 63) / 64}
	// One slot per distinct concrete label, in first-seen order, then the
	// wildcard-only slot. graph.InvalidLabel stands for "any other label":
	// no transition is compiled to it, so only wildcards fire on it.
	var reps []graph.LabelID
	for _, es := range n.step {
		for _, e := range es {
			if e.label < 0 {
				continue
			}
			for int(e.label) >= len(t.slotOf) {
				t.slotOf = append(t.slotOf, -1)
			}
			if t.slotOf[e.label] < 0 {
				t.slotOf[e.label] = int32(len(reps))
				reps = append(reps, e.label)
			}
		}
	}
	wild := int32(len(reps))
	for l, s := range t.slotOf {
		if s < 0 {
			t.slotOf[l] = wild
		}
	}
	reps = append(reps, graph.InvalidLabel)
	t.slots = len(reps)

	t.accept = make([]uint64, t.words)
	t.pack(t.accept, n.accept)
	start := n.startSet()
	t.first = make([]int32, t.slots)
	for s, l := range reps {
		t.first[s] = t.add(n.stepOn(start, l))
	}
	t.next = make([]int32, ns*t.slots)
	t.moves = make([]bool, ns)
	single := make([]bool, ns)
	for q := 0; q < ns; q++ {
		single[q] = true
		row := t.next[q*t.slots : (q+1)*t.slots]
		// Slots naming none of q's labels fire only its wildcard edges.
		wildSet := int32(-1)
		for _, e := range n.step[q] {
			if e.label == wildLabel {
				wildSet = t.add(n.stepOn(single, graph.InvalidLabel))
				break
			}
		}
		for s := range row {
			row[s] = wildSet
		}
		for _, e := range n.step[q] {
			if e.label < 0 {
				continue
			}
			// A label's set covers all of q's edges with that label (and
			// its wildcards), so it is computed once.
			if s := t.slotOf[e.label]; row[s] == wildSet {
				row[s] = t.add(n.stepOn(single, e.label))
			}
		}
		for _, i := range row {
			t.moves[q] = t.moves[q] || i >= 0
		}
		single[q] = false
	}
	return t
}

// add stores a []bool successor set and returns its index, or -1 for the
// nil set stepOn returns when no transition fired.
func (t *setTable) add(set []bool) int32 {
	if set == nil {
		return -1
	}
	i := int32(len(t.accepting))
	t.sets = append(t.sets, make([]uint64, t.words)...)
	t.pack(t.set(i), set)
	t.accepting = append(t.accepting, t.accepts(t.set(i)))
	return i
}

// pack writes a []bool state set into dst.
func (t *setTable) pack(dst []uint64, set []bool) {
	for q, ok := range set {
		if ok {
			dst[q/64] |= 1 << (q % 64)
		}
	}
}

// set returns successor set i.
func (t *setTable) set(i int32) []uint64 {
	return t.sets[int(i)*t.words : (int(i)+1)*t.words]
}

// slot returns the transition slot of label l.
func (t *setTable) slot(l graph.LabelID) int {
	if uint(l) < uint(len(t.slotOf)) {
		return int(t.slotOf[l])
	}
	return t.slots - 1
}

// accepts reports whether set holds an accepting state.
func (t *setTable) accepts(set []uint64) bool {
	for i, w := range set {
		if w&t.accept[i] != 0 {
			return true
		}
	}
	return false
}

// stepSet writes set's successor on slot s into dst (which must not alias
// set) and reports whether it is non-empty.
func (t *setTable) stepSet(dst, set []uint64, s int) bool {
	clear(dst)
	fired := false
	for i, word := range set {
		for word != 0 {
			q := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			j := t.next[q*t.slots+s]
			if j < 0 {
				continue
			}
			fired = true
			for k, x := range t.set(j) {
				dst[k] |= x
			}
		}
	}
	return fired
}
