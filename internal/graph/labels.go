// Package graph provides the directed, node-labeled graph data model that
// underlies all structural summaries in this repository.
//
// Following the paper's data model (Section 3), XML and other semi-structured
// data are modeled as a directed graph in which every node carries a label and
// a unique identifier. A distinguished ROOT label marks the single root of a
// document graph and a distinguished VALUE label marks atomic values. Tree
// edges (containment) and reference edges (ID/IDREF, XLink) are not
// distinguished: both are plain directed edges.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Reserved label names from the paper's data model.
const (
	// RootLabel is the distinguished label of the single document root.
	RootLabel = "ROOT"
	// ValueLabel is the distinguished label given to simple (atomic) objects.
	ValueLabel = "VALUE"
)

// LabelID is the interned identifier of a node label. Label identifiers are
// dense: they index into the owning LabelTable.
type LabelID int32

// InvalidLabel is returned for lookups of unknown label names.
const InvalidLabel LabelID = -1

// LabelTable interns label strings to dense LabelIDs. Names are kept in id
// order plus a by-name permutation for lookups (a binary search), so a copy
// is two small slices rather than a hash map. The zero value is an empty
// table. A LabelTable is not safe for concurrent mutation.
type LabelTable struct {
	names  []string  // by id; append-only
	byName []LabelID // ids ordered by name
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable { return &LabelTable{} }

// find returns the position of name in byName and whether it is there.
func (t *LabelTable) find(name string) (int, bool) {
	return slices.BinarySearchFunc(t.byName, name, func(id LabelID, name string) int {
		return strings.Compare(t.names[id], name)
	})
}

// Intern returns the LabelID for name, assigning a fresh one on first use.
func (t *LabelTable) Intern(name string) LabelID {
	i, ok := t.find(name)
	if ok {
		return t.byName[i]
	}
	id := LabelID(len(t.names))
	t.names = append(t.names, name)
	t.byName = slices.Insert(t.byName, i, id)
	return id
}

// Lookup returns the LabelID for name, or InvalidLabel if it has never been
// interned.
func (t *LabelTable) Lookup(name string) LabelID {
	if i, ok := t.find(name); ok {
		return t.byName[i]
	}
	return InvalidLabel
}

// Name returns the string form of id. It panics on out-of-range ids, which
// always indicate a programming error (LabelIDs are only minted by Intern).
func (t *LabelTable) Name(id LabelID) string {
	if id < 0 || int(id) >= len(t.names) {
		panic(fmt.Sprintf("graph: label id %d out of range [0,%d)", id, len(t.names)))
	}
	return t.names[id]
}

// Len returns the number of distinct labels interned.
func (t *LabelTable) Len() int { return len(t.names) }

// Names returns all interned label names in sorted order. The slice is fresh
// and may be retained by the caller.
func (t *LabelTable) Names() []string {
	out := make([]string, len(t.byName))
	for i, id := range t.byName {
		out[i] = t.names[id]
	}
	return out
}

// Clone returns an independent copy of the table. The append-only names are
// shared with capped capacity (an Intern on either side reallocates them);
// the by-name permutation is copied.
func (t *LabelTable) Clone() *LabelTable {
	return &LabelTable{names: t.names[:len(t.names):len(t.names)], byName: slices.Clone(t.byName)}
}
