package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refFetch is the memo-less instruction fetch: find, touch on a hit, fill
// from the L2 on a miss. The memoized System.Fetch must be
// indistinguishable from it.
func refFetch(s *System, core int, addr, now int64) int64 {
	c := s.l1i[core]
	if i := c.find(addr); i >= 0 {
		c.touchIdx(i)
		s.St.L1IHits[core]++
		return now + c.cfg.HitLat
	}
	s.St.L1IMisses[core]++
	t := s.l2Access(addr, now)
	c.fill(addr, shared)
	return t + c.cfg.HitLat
}

// fetchStream draws one core's next fetch address: straight-line runs,
// short loops, line-crossing jumps and addresses aliasing into one L1I set
// (a multiple of the set stride apart), all in that core's code space.
type fetchStream struct {
	rng       *rand.Rand
	base, pc  int64
	loopStart int64
	loopLeft  int
	stride    int64 // bytes between addresses of the same set
}

func (f *fetchStream) next() int64 {
	const inst = 16
	switch r := f.rng.Intn(100); {
	case r < 60: // straight line
		f.pc += inst
	case r < 75: // loop back-edge
		if f.loopLeft == 0 {
			f.loopStart, f.loopLeft = f.pc-int64(f.rng.Intn(12))*inst, 1+f.rng.Intn(6)
		}
		f.loopLeft--
		f.pc = f.loopStart
	case r < 90: // jump across lines
		f.pc += int64(f.rng.Intn(64)-32) * inst
	default: // alias: same set, different tag
		f.pc += int64(1+f.rng.Intn(3)) * f.stride
	}
	if f.pc < 0 {
		f.pc = 0
	}
	f.pc &= 1<<20 - 1
	return f.base | f.pc
}

// TestFetchMemoMatchesReference drives random multi-core fetch streams
// through the memoized Fetch and the reference, on the default geometry
// and on one with non-power-of-two lines, with occasional Resets. Every
// fetch must complete at the same cycle, and the hit/miss counts and the
// L1I and L2 tag, state and LRU arrays must stay identical throughout.
func TestFetchMemoMatchesReference(t *testing.T) {
	odd := DefaultConfig(3)
	odd.L1I = CacheCfg{SizeBytes: 3 << 10, Assoc: 2, LineBytes: 48, HitLat: 1}
	for _, cfg := range []Config{DefaultConfig(4), odd} {
		for seed := int64(1); seed <= 20; seed++ {
			name := fmt.Sprintf("line%d/seed%d", cfg.L1I.LineBytes, seed)
			memo, ref := NewSystem(cfg, NewFlat(8)), NewSystem(cfg, NewFlat(8))
			rng := rand.New(rand.NewSource(seed))
			streams := make([]*fetchStream, cfg.Cores)
			for c := range streams {
				l1i := memo.l1i[c]
				streams[c] = &fetchStream{
					rng:    rand.New(rand.NewSource(seed*100 + int64(c))),
					base:   int64(rng.Intn(4))<<24 | int64(c)<<20,
					stride: l1i.numSets * l1i.cfg.LineBytes,
				}
			}
			now := int64(0)
			for i := 0; i < 4000; i++ {
				if rng.Intn(1500) == 0 {
					memo.Reset(NewFlat(8))
					ref.Reset(NewFlat(8))
				}
				c := rng.Intn(cfg.Cores)
				addr := streams[c].next()
				now += int64(rng.Intn(3))
				got, want := memo.Fetch(c, addr, now), refFetch(ref, c, addr, now)
				if got != want {
					t.Fatalf("%s: fetch %d (core %d, %#x): done at %d, reference %d", name, i, c, addr, got, want)
				}
			}
			if !reflect.DeepEqual(memo.St, ref.St) {
				t.Errorf("%s: stats diverge\nmemo: %+v\nref:  %+v", name, memo.St, ref.St)
			}
			for c := range memo.l1i {
				if !reflect.DeepEqual(memo.l1i[c].lines, ref.l1i[c].lines) || memo.l1i[c].tick != ref.l1i[c].tick {
					t.Errorf("%s: core %d L1I tag/LRU arrays diverge", name, c)
				}
			}
			if !reflect.DeepEqual(memo.l2.lines, ref.l2.lines) {
				t.Errorf("%s: L2 tag/LRU arrays diverge", name)
			}
		}
	}
}

// mapTM is the map-based transactional memory the flat read/write sets
// replaced, kept as the oracle: identical conflict detection and
// arbitration over Go maps.
type mapTM struct {
	tx        []mapTx
	conflicts int64
}

type mapTx struct {
	active, aborted   bool
	order             int
	readSet, writeSet map[int64]bool
	undoAddr          []int64
	undoVal           []uint64
}

func newMapTM(n int) *mapTM { return &mapTM{tx: make([]mapTx, n)} }

func (tm *mapTM) Begin(core, order int) {
	t := &tm.tx[core]
	t.readSet, t.writeSet = map[int64]bool{}, map[int64]bool{}
	t.active, t.aborted, t.order = true, false, order
	t.undoAddr, t.undoVal = nil, nil
}

func (tm *mapTM) OnRead(core int, addr int64) {
	t := &tm.tx[core]
	if !t.active || t.aborted {
		return
	}
	t.readSet[addr] = true
	for i := range tm.tx {
		o := &tm.tx[i]
		if i != core && o.active && !o.aborted && o.writeSet[addr] {
			tm.resolve(core, i)
		}
	}
}

func (tm *mapTM) OnWrite(core int, addr int64, old uint64) {
	t := &tm.tx[core]
	if !t.active || t.aborted {
		return
	}
	if !t.writeSet[addr] {
		t.writeSet[addr] = true
		t.undoAddr = append(t.undoAddr, addr)
		t.undoVal = append(t.undoVal, old)
	}
	for i := range tm.tx {
		o := &tm.tx[i]
		if i != core && o.active && !o.aborted && (o.writeSet[addr] || o.readSet[addr]) {
			tm.resolve(core, i)
		}
	}
}

func (tm *mapTM) resolve(a, b int) {
	tm.conflicts++
	if tm.tx[a].order >= tm.tx[b].order {
		tm.tx[a].aborted = true
	} else {
		tm.tx[b].aborted = true
	}
}

func (tm *mapTM) Commit(core int) bool {
	t := &tm.tx[core]
	if t.aborted {
		return false
	}
	t.active = false
	return true
}

func (tm *mapTM) Abort(core int, flat *Flat) {
	t := &tm.tx[core]
	for i := len(t.undoAddr) - 1; i >= 0; i-- {
		flat.StoreW(t.undoAddr[i], t.undoVal[i])
	}
	t.active, t.aborted = false, false
}

// TestTMMatchesMapOracle runs random Begin/OnRead/OnWrite/Commit/Abort
// streams (plus occasional Resets of the flat TM, mirrored by a fresh
// oracle) on 4 and 64 cores through both TMs, each over its own memory
// image. After every operation the conflict count and every core's active
// and aborted flags and undo log must agree, and after every abort the
// rolled-back memory images too. Addresses
// come from a small hot pool (so transactions conflict) and a wide range
// (so read/write sets outgrow their initial tables).
func TestTMMatchesMapOracle(t *testing.T) {
	const words = 1 << 12
	for _, cores := range []int{4, 64} {
		for seed := int64(1); seed <= 10; seed++ {
			name := fmt.Sprintf("%dcores/seed%d", cores, seed)
			rng := rand.New(rand.NewSource(seed))
			tm, oracle := NewTM(cores), newMapTM(cores)
			flat, oflat := NewFlat(words), NewFlat(words)
			addr := func() int64 {
				if rng.Intn(2) == 0 {
					return int64(rng.Intn(16)) * 8
				}
				return int64(rng.Intn(words)) * 8
			}
			// Each operation goes to one of a few cores in a burst, so the
			// 64-core machine also builds sets large enough to grow.
			hot := make([]int, 4)
			var conflicts int64 // summed across Resets
			grown := false
			for i := 0; i < 20000; i++ {
				if i%500 == 0 {
					for k := range hot {
						hot[k] = rng.Intn(cores)
					}
				}
				c := hot[rng.Intn(len(hot))]
				op := rng.Intn(1000)
				switch {
				case op == 0:
					conflicts += oracle.conflicts
					tm.Reset()
					oracle = newMapTM(cores)
				case op < 40:
					order := rng.Intn(cores)
					tm.Begin(c, order)
					oracle.Begin(c, order)
				case op < 500:
					a := addr()
					tm.OnRead(c, a)
					oracle.OnRead(c, a)
				case op < 900:
					a, v := addr(), rng.Uint64()
					tm.OnWrite(c, a, flat.LoadW(a))
					flat.StoreW(a, v)
					oracle.OnWrite(c, a, oflat.LoadW(a))
					oflat.StoreW(a, v)
				case op < 950:
					if got, want := tm.Commit(c), oracle.Commit(c); got != want {
						t.Fatalf("%s op %d: Commit(%d) = %v, oracle %v", name, i, c, got, want)
					}
				default:
					tm.Abort(c, flat)
					oracle.Abort(c, oflat)
				}
				if tm.Conflicts() != oracle.conflicts {
					t.Fatalf("%s op %d: conflicts %d, oracle %d", name, i, tm.Conflicts(), oracle.conflicts)
				}
				for k := range oracle.tx {
					if tm.Active(k) != oracle.tx[k].active || tm.Aborted(k) != oracle.tx[k].aborted {
						t.Fatalf("%s op %d: core %d active/aborted %v/%v, oracle %v/%v",
							name, i, k, tm.Active(k), tm.Aborted(k), oracle.tx[k].active, oracle.tx[k].aborted)
					}
				}
				// Only the operated core's undo log can change.
				if x, o := &tm.tx[c], &oracle.tx[c]; !slices.Equal(x.undoAddr, o.undoAddr) || !slices.Equal(x.undoVal, o.undoVal) {
					t.Fatalf("%s op %d: core %d undo log diverges from the oracle", name, i, c)
				}
				if op >= 950 && !flat.Equal(oflat) { // only a rollback can diverge it
					t.Fatalf("%s op %d: memory image diverges from the oracle after an abort", name, i)
				}
				for k := range tm.tx {
					grown = grown || len(tm.tx[k].readSet.slots) > 16
				}
			}
			if conflicts += oracle.conflicts; conflicts == 0 || !grown {
				t.Errorf("%s: stream too tame (conflicts %d, a set outgrew its first table: %v)", name, conflicts, grown)
			}
		}
	}
}

// TestAddrSetGenerationWrap: clearing at the last generation sweeps the
// table, so entries stamped long ago can never reappear as live.
func TestAddrSetGenerationWrap(t *testing.T) {
	var s addrSet
	for a := int64(0); a < 40; a++ {
		s.add(a * 8)
	}
	s.gen = ^uint32(0)
	for i := range s.slots {
		if s.slots[i].gen != 0 {
			s.slots[i].gen = s.gen
		}
	}
	s.clear()
	if s.gen != 1 || s.n != 0 {
		t.Fatalf("after wrap gen=%d n=%d, want 1/0", s.gen, s.n)
	}
	for a := int64(0); a < 40; a++ {
		if s.has(a * 8) {
			t.Fatalf("address %d survived a wrapped clear", a*8)
		}
	}
	if !s.add(8) || s.add(8) || !s.has(8) || s.has(16) {
		t.Error("set misbehaves after a wrapped clear")
	}
}
