// Package mem implements the memory system of the Voltron machine: the flat
// backing store, the private L1 and shared banked L2 caches, the MOESI
// bus-snooping coherence protocol, and the low-cost transactional memory
// used for speculative execution of statistical DOALL loops.
package mem

import (
	"fmt"

	"voltron/internal/ir"
)

// Flat is the word-granular backing store shared by the reference
// interpreter and the simulator. Addresses are byte addresses; all accesses
// are 8-byte aligned words.
type Flat struct {
	words []uint64
}

// NewFlat allocates a zeroed memory image of the given word count.
func NewFlat(words int64) *Flat { return &Flat{words: make([]uint64, words)} }

// NewFlatFor allocates and initializes memory for a program's data layout.
func NewFlatFor(p *ir.Program) *Flat {
	m := NewFlat(p.MemWords())
	for addr, v := range p.Init {
		m.StoreW(addr, v)
	}
	return m
}

// Words returns the size of the image in words.
func (m *Flat) Words() int64 { return int64(len(m.words)) }

// LoadW reads the word at the byte address.
func (m *Flat) LoadW(addr int64) uint64 {
	m.check(addr)
	return m.words[addr>>3]
}

// StoreW writes the word at the byte address.
func (m *Flat) StoreW(addr int64, v uint64) {
	m.check(addr)
	m.words[addr>>3] = v
}

func (m *Flat) check(addr int64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
	}
	if addr < 0 || addr>>3 >= int64(len(m.words)) {
		panic(fmt.Sprintf("mem: access out of bounds at %#x (size %d words)", addr, len(m.words)))
	}
}

// Clone returns a deep copy (used for TM checkpoints and test oracles).
func (m *Flat) Clone() *Flat {
	w := make([]uint64, len(m.words))
	copy(w, m.words)
	return &Flat{words: w}
}

// CopyInto copies the image into dst and returns it, or returns a fresh
// clone when dst is nil or sized differently.
func (m *Flat) CopyInto(dst *Flat) *Flat {
	if dst == nil || len(dst.words) != len(m.words) {
		return m.Clone()
	}
	copy(dst.words, m.words)
	return dst
}

// Equal reports whether two images hold identical contents.
func (m *Flat) Equal(o *Flat) bool {
	if len(m.words) != len(o.words) {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// FirstDiff returns the byte address of the first differing word and the two
// values, or ok=false when equal. Used by test failure messages.
func (m *Flat) FirstDiff(o *Flat) (addr int64, a, b uint64, ok bool) {
	n := len(m.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if m.words[i] != o.words[i] {
			return int64(i) << 3, m.words[i], o.words[i], true
		}
	}
	if len(m.words) != len(o.words) {
		return int64(n) << 3, 0, 0, true
	}
	return 0, 0, 0, false
}
