package tmk

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// refReadWord and refWriteWord are the access path as it was before the
// translation cache — unit lookup, protection check, collector hook and
// replica access on every word — kept as the reference the cached path
// is compared against. A write takes the write-set step (recordWrite)
// the cached path takes, on every store: the write set is how the engine
// detects writes, so a store past it would go undiffed.
func refReadWord(p *Proc, a mem.Addr) float64 {
	p.clock.Advance(p.sys.cost.MemAccess)
	if !p.pt.CanRead(p.unitOf(mem.PageOf(a))) {
		p.readFault(mem.PageOf(a))
	}
	if c := p.sys.col; c != nil {
		if row := c.TagRow(p.id, mem.PageOf(a)); row != nil {
			if w := mem.WordIndex(a); row[w] != 0 {
				c.Credit(p.id, row[w])
				row[w] = 0
			}
		}
	}
	return p.rep.ReadF64(a)
}

func refWriteWord(p *Proc, a mem.Addr, v float64) {
	p.clock.Advance(p.sys.cost.MemAccess)
	if u := p.unitOf(mem.PageOf(a)); !p.pt.CanWrite(u) {
		p.writeFault(u, mem.PageOf(a))
	}
	if c := p.sys.col; c != nil {
		if row := c.TagRow(p.id, mem.PageOf(a)); row != nil {
			row[mem.WordIndex(a)] = 0
		}
	}
	page := mem.PageOf(a)
	p.recordWrite(p.writeSetOf(page), (*[mem.PageSize]byte)(p.rep.Page(page)), a&(mem.PageSize-1))
	p.rep.WriteF64(a, v)
}

// accessProgram is a seeded random program over a segment of
// 2·tlbSize+8 pages: phases of reads anywhere and writes to the
// processor's own word lanes (so pages have many writers and no word
// has two), separated by barriers, with one processor per phase also
// updating a counter under a lock — a deterministic hand-off chain. A
// third of the accesses go to pages that share a translation-cache slot
// with a recently used page. Some writes put back the value a lane word
// had when the interval began, which must leave it out of the diff.
// Halfway through each phase one processor writes every word of a page
// no one else writes, which fills its write set and moves its writes to
// the fast path, and sends half its later writes there.
func accessProgram(seed int64, read func(*Proc, mem.Addr) float64, write func(*Proc, mem.Addr, float64), sums []float64) func(*Proc) {
	const (
		pages  = 2*tlbSize + 8
		phases = 6
		ops    = 400
		hot    = 12        // pages most accesses fall on
		whole  = pages - 2 // the page written in full
	)
	return func(p *Proc) {
		rng := rand.New(rand.NewSource(seed*131 + int64(p.ID())))
		n := p.NProcs()
		last := 0
		type saved struct {
			a mem.Addr
			v float64
		}
		for ph := 0; ph < phases; ph++ {
			var before []saved // lane words written this interval, as they began it
			written := make(map[mem.Addr]bool)
			filler := ph%n == p.ID()
			for i := 0; i < ops; i++ {
				if filler && i == ops/2 {
					for w := 0; w < mem.WordsPerPage; w++ {
						write(p, wordAddr(whole, w), float64(ph*mem.WordsPerPage+w+1))
					}
				}
				var page int
				switch rng.Intn(3) {
				case 0:
					page = rng.Intn(hot)
				case 1:
					page = rng.Intn(pages)
				default:
					// The page one table-size up that folds onto last's slot.
					page = tlbSize | (last^1)&(tlbSize-1)
					if tlbIndex(page) != tlbIndex(last&(tlbSize-1)) {
						panic("alias does not collide")
					}
				}
				last = page
				switch {
				case rng.Intn(3) != 0:
					sums[p.ID()] += read(p, wordAddr(page, rng.Intn(mem.WordsPerPage)))
				case filler && i > ops/2 && rng.Intn(2) == 0:
					write(p, wordAddr(whole, rng.Intn(mem.WordsPerPage)), float64(rng.Intn(1000)+1))
				case len(before) > 0 && rng.Intn(4) == 0:
					b := before[rng.Intn(len(before))]
					write(p, b.a, b.v)
				case page != whole:
					a := wordAddr(page, rng.Intn(mem.WordsPerPage/n)*n+p.ID())
					if !written[a] {
						written[a] = true
						before = append(before, saved{a, read(p, a)})
					}
					write(p, a, float64(rng.Intn(1000)+1))
				}
			}
			if ph%n == p.ID() {
				p.Lock(0)
				a := wordAddr(pages-1, 0)
				write(p, a, read(p, a)+1)
				p.Unlock(0)
			}
			p.Barrier()
		}
	}
}

// TestAccessPathMatchesReference drives two Systems with the same
// program, one through the public access methods and one through the
// reference path, and requires the same Result, the same Stats, the
// same values read and the same final replica bytes on every processor.
func TestAccessPathMatchesReference(t *testing.T) {
	const procs = 4
	type unit struct {
		pages   int
		dynamic bool
	}
	for _, proto := range []string{"homeless", "home", "adaptive"} {
		for _, scale := range []string{ScaleSparse, ScaleDense} {
			for _, u := range []unit{{1, false}, {2, false}, {4, false}, {1, true}} {
				name := fmt.Sprintf("%s/%s/unit%d", proto, scale, u.pages)
				if u.dynamic {
					name = fmt.Sprintf("%s/%s/dyn", proto, scale)
				}
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Procs: procs, SegmentBytes: (2*tlbSize + 8) * mem.PageSize, Locks: 1,
						UnitPages: u.pages, Dynamic: u.dynamic, Protocol: proto, Scale: scale, Collect: true,
					}
					tune := tuning{hysteresis: 1, gate: gateOpen}
					fast, ref := mustTuned(t, cfg, tune), mustTuned(t, cfg, tune)
					fastSums, refSums := make([]float64, procs), make([]float64, procs)
					got := fast.Run(accessProgram(7, (*Proc).ReadF64, (*Proc).WriteF64, fastSums))
					want := ref.Run(accessProgram(7, refReadWord, refWriteWord, refSums))

					if got.Faults == 0 || got.Twins == 0 || got.Stats.Exchanges == 0 {
						t.Fatalf("program exercised nothing: %+v", got)
					}
					if fast.Promoted() == 0 || fast.Promoted() != ref.Promoted() {
						t.Errorf("%d pages took the write fast path, %d on the reference path; want the same, and some", fast.Promoted(), ref.Promoted())
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("results differ:\n cached    %+v\n   stats   %+v\n reference %+v\n   stats   %+v", got, got.Stats, want, want.Stats)
					}
					if !reflect.DeepEqual(fastSums, refSums) {
						t.Errorf("values read differ: cached %v, reference %v", fastSums, refSums)
					}
					for id := 0; id < procs; id++ {
						for pg := 0; pg < fast.NumPages(); pg++ {
							if !bytes.Equal(fast.procs[id].rep.Frame(pg), ref.procs[id].rep.Frame(pg)) {
								t.Fatalf("processor %d page %d: replica bytes differ", id, pg)
							}
						}
					}
				})
			}
		}
	}
}
