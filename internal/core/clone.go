package core

// Copy-on-write support for snapshot-isolated serving: every mutating
// operation of the facade works on a Clone of the published snapshot, then
// publishes the finished copy atomically.
//
// One Clone serves every operation, and it costs what the next mutation
// changes rather than the corpus. Mutable per-node state — the data graph's
// children and parent rows, the index graph's similarities, extents, counted
// adjacency rows and data-to-index map — sits in fixed-size copy-on-write
// chunks (internal/cow), so the clone copies chunk-pointer tables. Append-only
// state — node labels, posting lists, label names — is shared with capped
// capacity, so an append on either side reallocates. The label table's
// by-name permutation is copied outright (O(labels)). Ownership rule: a chunk
// is written in place only by the graph that allocated it, and only until
// that graph is cloned; Clone revokes the receiver's ownership with an atomic
// store, so cloning a published snapshot under concurrent readers is
// race-free, and after it both sides copy a chunk (capping its rows, so
// shared rows are never written) on their first write to it. Mutating either
// side therefore leaves the other bit-identical.

// Clone returns a copy of the index whose every layer — label table, data
// graph, index graph, requirements — can be mutated without the receiver
// observing it.
func (dk *DK) Clone() *DK {
	return &DK{IG: dk.IG.Clone(), LabelReqs: dk.LabelReqs.Clone()}
}

// CloneForUpdate is Clone.
//
// Deprecated: use Clone.
func (dk *DK) CloneForUpdate() *DK { return dk.Clone() }

// CloneDetached is Clone.
//
// Deprecated: use Clone.
func (dk *DK) CloneDetached() *DK { return dk.Clone() }
