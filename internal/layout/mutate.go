package layout

import (
	"fmt"
	"sort"
)

// Mutation support for online re-replication. A layout built by Build or
// NewManual is normally immutable; the repair subsystem (internal/repair)
// rebuilds lost replicas and reclaims cold excess ones at run time, which
// requires adding and removing copies in place while keeping every derived
// index -- the copies lists, the blockAt grid, the dense posOn index, the
// sorted per-tape slot tables and, once built, the free bitmap --
// consistent. Both mutators flip the
// `mutated` flag, which relaxes Validate's exact copy-count check (a
// repaired layout legitimately differs from its build-time replica counts)
// while every structural invariant still holds.

// Mutated reports whether the layout has been modified since construction.
func (l *Layout) Mutated() bool { return l.mutated }

// FreeBlocks returns the number of unoccupied positions on tape t.
func (l *Layout) FreeBlocks(t int) int {
	return l.cfg.TapeCapBlocks - len(l.tapeSlots[t])
}

// FreeStride returns the number of 64-bit words per tape in the free
// bitmap FreeWords exposes.
func (l *Layout) FreeStride() int { return (l.cfg.TapeCapBlocks + 63) / 64 }

// FreeWords returns tape t's free-position bitmap: bit p%64 of word p/64
// is set when position p holds no copy; bits past the tape's end are
// clear. The bitmap is built on the first call for any tape and then kept
// current by AddCopy and RemoveCopy, so -- like those mutators -- the
// first call needs exclusive access to the layout. The returned slice is
// the layout's own and must not be modified.
func (l *Layout) FreeWords(t int) []uint64 {
	stride := l.FreeStride()
	if l.free == nil {
		l.free = make([]uint64, l.cfg.Tapes*stride)
		for tape, row := range l.blockAt {
			for p, b := range row {
				if b == -1 {
					l.free[tape*stride+p/64] |= 1 << uint(p%64)
				}
			}
		}
	}
	return l.free[t*stride : (t+1)*stride]
}

// setFree updates the free bitmap, if built, for position (t, p).
func (l *Layout) setFree(t, p int, free bool) {
	if l.free == nil {
		return
	}
	i, bit := t*l.FreeStride()+p/64, uint64(1)<<uint(p%64)
	if free {
		l.free[i] |= bit
	} else {
		l.free[i] &^= bit
	}
}

// FirstFree returns the lowest unoccupied position on tape t for which ok
// (when non-nil) holds, or -1 when the tape has no acceptable free position.
func (l *Layout) FirstFree(t int, ok func(pos int) bool) int {
	for p, b := range l.blockAt[t] {
		if b == -1 && (ok == nil || ok(p)) {
			return p
		}
	}
	return -1
}

// AddCopy records a new physical copy of block b at (tape, pos). The
// position must be free and the block must not already have a copy on the
// tape (the at-most-one-copy-per-tape invariant).
func (l *Layout) AddCopy(b BlockID, tape, pos int) error {
	if int(b) < 0 || int(b) >= len(l.copies) {
		return fmt.Errorf("layout: AddCopy: no block %d", b)
	}
	if tape < 0 || tape >= l.cfg.Tapes || pos < 0 || pos >= l.cfg.TapeCapBlocks {
		return fmt.Errorf("layout: AddCopy: position (%d,%d) out of bounds", tape, pos)
	}
	if got := l.blockAt[tape][pos]; got != -1 {
		return fmt.Errorf("layout: AddCopy: position (%d,%d) holds block %d", tape, pos, got)
	}
	if _, dup := l.ReplicaOn(b, tape); dup {
		return fmt.Errorf("layout: AddCopy: block %d already has a copy on tape %d", b, tape)
	}
	l.copies[b] = append(l.copies[b], Replica{Tape: tape, Pos: pos})
	l.blockAt[tape][pos] = b
	l.setFree(tape, pos, false)
	if l.posOn != nil {
		l.posOn[int(b)*l.cfg.Tapes+tape] = int32(pos) + 1
	}
	l.insertSlot(tape, pos, b)
	l.mutated = true
	return nil
}

// RemoveCopy deletes block b's copy on the given tape. The sole remaining
// copy of a block cannot be removed (data loss is the fault model's job,
// not the mutation API's).
func (l *Layout) RemoveCopy(b BlockID, tape int) error {
	if int(b) < 0 || int(b) >= len(l.copies) {
		return fmt.Errorf("layout: RemoveCopy: no block %d", b)
	}
	c, ok := l.ReplicaOn(b, tape)
	if !ok {
		return fmt.Errorf("layout: RemoveCopy: block %d has no copy on tape %d", b, tape)
	}
	cs := l.copies[b]
	if len(cs) <= 1 {
		return fmt.Errorf("layout: RemoveCopy: refusing to remove the sole copy of block %d", b)
	}
	for i := range cs {
		if cs[i].Tape == tape {
			l.copies[b] = append(cs[:i], cs[i+1:]...)
			break
		}
	}
	l.blockAt[tape][c.Pos] = -1
	l.setFree(tape, c.Pos, true)
	if l.posOn != nil {
		l.posOn[int(b)*l.cfg.Tapes+tape] = 0
	}
	l.removeSlot(tape, c.Pos)
	l.mutated = true
	return nil
}

// insertSlot places (pos, b) into tape t's sorted slot table.
func (l *Layout) insertSlot(t, pos int, b BlockID) {
	slots := l.tapeSlots[t]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].Pos >= pos })
	slots = append(slots, Slot{})
	copy(slots[i+1:], slots[i:])
	slots[i] = Slot{Pos: pos, Block: b}
	l.tapeSlots[t] = slots
}

// removeSlot deletes the slot at pos from tape t's sorted slot table.
func (l *Layout) removeSlot(t, pos int) {
	slots := l.tapeSlots[t]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].Pos >= pos })
	if i < len(slots) && slots[i].Pos == pos {
		l.tapeSlots[t] = append(slots[:i], slots[i+1:]...)
	}
}
