package cachesim

import (
	"sort"

	"bsdtrace/internal/xfer"
)

// resolved is a tape's block-level view at one block size: every
// (file, block index) pair touched by any transfer is assigned a dense
// integer ID, and each transfer's accesses are flattened into one shared
// ID array. Replaying a configuration then needs no hashing at all — the
// cache is an array indexed by block ID — and the resolution is computed
// once per (tape, block size) and shared read-only by every
// configuration at that size (see Tape.Memo).
type resolved struct {
	blockSize int64
	// blockIdx is each dense block ID's block index within its file.
	blockIdx []int64
	// accessIDs[accessOff[i]:accessOff[i+1]] are the block IDs touched
	// by tape transfer i, in access order.
	accessOff []int64
	accessIDs []int32
	// fileBlocks lists each tape file slot's block IDs sorted ascending
	// by block index, so a purge (whose op names the slot) scans only
	// the doomed suffix — in a deterministic order, unlike a map walk.
	// A slot no transfer touched has none, and purging it is a no-op.
	fileBlocks [][]int32
}

// nBlocks returns the number of distinct blocks the tape references.
func (r *resolved) nBlocks() int { return len(r.blockIdx) }

// resolveTape computes the dense block-level view of a tape at one block
// size. blockSize must be positive. IDs are numbered in first-access
// order. A file slot whose extent (in blocks) is at most twice its
// block accesses plus 16 looks its blocks up in one flat table indexed
// by slot base + block index, so the table costs at most two entries
// per access plus 16 per file. A sparser slot — a foreign block trace's
// volume spanning a whole disk, say — falls back to a map of its own,
// so memory follows the blocks touched, never the largest offset.
func resolveTape(t *xfer.Tape, blockSize int64) *resolved {
	// The flattened access count is pure arithmetic over the transfers,
	// so accessIDs can be sized exactly up front; per slot, the same
	// count bounds the blocks it can touch. A negative offset (only a
	// malformed trace has one) cannot index a table: -1 marks the slot
	// sparse.
	nSlots := len(t.Files)
	accesses := make([]int64, nSlots)
	var nAccess int64
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		n := (tr.End()-1)/blockSize - tr.Offset/blockSize + 1
		nAccess += n
		if s := t.Slots[i]; tr.Offset < 0 {
			accesses[s] = -1
		} else if accesses[s] >= 0 {
			accesses[s] += n
		}
	}
	// base[s] is slot s's offset into the flat table, or -1 for a slot
	// resolved through sparse[s].
	extent := func(s int) int64 { return (t.Extents[s] + blockSize - 1) / blockSize }
	base := make([]int64, nSlots)
	var tableLen int64
	var sparse []map[int64]int32
	for s, acc := range accesses {
		if n := extent(s); acc >= 0 && n <= 2*acc+16 {
			base[s] = tableLen
			tableLen += n
			continue
		}
		base[s] = -1
		if sparse == nil {
			sparse = make([]map[int64]int32, nSlots)
		}
		sparse[s] = make(map[int64]int32)
	}
	// table holds ID+1, so its zero value means "not seen yet".
	table := make([]int32, tableLen)
	r := &resolved{
		blockSize: blockSize,
		accessOff: make([]int64, len(t.Transfers)+1),
		accessIDs: make([]int32, 0, nAccess),
	}
	newID := func(idx int64) int32 {
		r.blockIdx = append(r.blockIdx, idx)
		return int32(len(r.blockIdx) - 1)
	}
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		s := t.Slots[i]
		first := tr.Offset / blockSize
		last := (tr.End() - 1) / blockSize
		if b := base[s]; b >= 0 {
			row := table[b+first : b+last+1]
			for k, v := range row {
				if v == 0 {
					v = newID(first+int64(k)) + 1
					row[k] = v
				}
				r.accessIDs = append(r.accessIDs, v-1)
			}
		} else {
			m := sparse[s]
			for idx := first; idx <= last; idx++ {
				id, ok := m[idx]
				if !ok {
					id = newID(idx)
					m[idx] = id
				}
				r.accessIDs = append(r.accessIDs, id)
			}
		}
		r.accessOff[i+1] = int64(len(r.accessIDs))
	}
	// Carve every slot's sorted ID list out of one array: a table walk
	// yields a dense slot's IDs in block order already; a sparse slot's
	// are sorted.
	all := make([]int32, 0, len(r.blockIdx))
	r.fileBlocks = make([][]int32, nSlots)
	for s := range r.fileBlocks {
		lo := len(all)
		if b := base[s]; b >= 0 {
			for _, v := range table[b : b+extent(s)] {
				if v != 0 {
					all = append(all, v-1)
				}
			}
		} else {
			for _, id := range sparse[s] {
				all = append(all, id)
			}
			fb := all[lo:]
			sort.Slice(fb, func(i, j int) bool { return r.blockIdx[fb[i]] < r.blockIdx[fb[j]] })
		}
		r.fileBlocks[s] = all[lo:len(all):len(all)]
	}
	return r
}

// resolvedFor returns the tape's resolution at blockSize, memoized on
// the tape so concurrent configurations share one copy.
func resolvedFor(t *xfer.Tape, blockSize int64) *resolved {
	return t.Memo(blockSize, func() any { return resolveTape(t, blockSize) }).(*resolved)
}
