package tmk

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vc"
)

// The fetch paths' earlier gather, kept as the oracle for the
// work-sized plans (plan, under both home bits, and planFlush): per-writer,
// per-unit and per-page index tables sized by the processor and page
// counts, invalidated by bumping a generation mark, and touched-peer
// lists put in ascending order by insertion sort.

type refNeed struct {
	iv   *lrc.Interval
	unit int
}

type refAcc struct {
	page         int
	coalesceable bool
	items        []fetchItem
}

func refSortTouched(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for j > 0 && a[j-1] > v {
			a[j] = a[j-1]
			j--
		}
		a[j] = v
	}
}

// refPlanDiffs is the homeless gather: the exchanges, in send order, and
// the items they carry, before the causal sort.
func refPlanDiffs(procs, numPages, up int, units []int, miss map[int][]*lrc.Interval) ([]exchange, []fetchItem) {
	needs := make([][]refNeed, procs)
	writerMark := make([]int64, procs)
	unitWr := make([]int32, numPages/up)
	pageMark := make([]int64, numPages)
	pageSlot := make([]int32, numPages)
	var gen int64
	var writers []int32
	for _, u := range units {
		m := miss[u]
		if len(m) == 0 {
			continue
		}
		gen++
		distinct := int32(0)
		for _, iv := range m {
			w := iv.ID.Proc
			if len(needs[w]) == 0 {
				writers = append(writers, int32(w))
			}
			needs[w] = append(needs[w], refNeed{iv: iv, unit: u})
			if writerMark[w] != gen {
				writerMark[w] = gen
				distinct++
			}
		}
		unitWr[u] = distinct
	}

	refSortTouched(writers)
	var xs []exchange
	var items []fetchItem
	for _, w32 := range writers {
		w := int(w32)
		x := exchange{peer: w, req: 16 + 8*len(needs[w]), lo: len(items)}
		gen++
		var accs []refAcc
		for _, n := range needs[w] {
			for _, pd := range n.iv.DiffsInUnit(n.unit, up) {
				if pageMark[pd.Page] != gen {
					pageMark[pd.Page] = gen
					pageSlot[pd.Page] = int32(len(accs))
					accs = append(accs, refAcc{page: pd.Page, coalesceable: unitWr[n.unit] == 1})
				}
				acc := &accs[pageSlot[pd.Page]]
				sum, prc, sq := n.iv.CausalKey()
				acc.items = append(acc.items, fetchItem{page: pd.Page, d: pd.D, sum: sum, prc: prc, sq: sq})
			}
		}
		for _, acc := range accs {
			if acc.coalesceable && len(acc.items) > 1 {
				var ds []mem.Diff
				for _, it := range acc.items {
					ds = append(ds, it.d)
				}
				last := acc.items[len(acc.items)-1]
				last.d = new(mem.DiffScratch).Coalesce(ds)
				x.reply += last.d.WireBytes()
				items = append(items, last)
				continue
			}
			for _, it := range acc.items {
				x.reply += it.d.WireBytes()
				items = append(items, it)
			}
		}
		x.hi = len(items)
		xs = append(xs, x)
	}
	return xs, items
}

// refPlanImages is the home fetch's gather: the exchanges with remote
// homes, in send order, each replying a full-page image per page, and
// every page in application order (local homes' pages included, at
// their home's position).
func refPlanImages(self, procs, up int, fetch, homeOf []int) ([]exchange, []fetchItem) {
	homeUnits := make([][]int, procs)
	var homes []int32
	for _, u := range fetch {
		home := homeOf[u]
		if len(homeUnits[home]) == 0 {
			homes = append(homes, int32(home))
		}
		homeUnits[home] = append(homeUnits[home], u)
	}
	refSortTouched(homes)
	var xs []exchange
	var items []fetchItem
	for _, hm := range homes {
		us := homeUnits[hm]
		x := exchange{peer: int(hm), req: 16 + 8*len(us), lo: len(items)}
		for _, u := range us {
			for s := 0; s < up; s++ {
				items = append(items, fetchItem{page: u*up + s})
				x.reply += mem.FullPageWireBytes
			}
		}
		x.hi = len(items)
		if x.peer != self {
			xs = append(xs, x)
		}
	}
	return xs, items
}

// refPlanFlush is the home release's gather: one (home, payload bytes)
// flush per remote home, in send order.
func refPlanFlush(self, procs, up int, diffs []lrc.PageDiff, homeOf []int) []exchange {
	homeBytes := make([]int, procs)
	var relHomes []int32
	for _, pd := range diffs {
		home := homeOf[pd.Page/up]
		if homeBytes[home] == 0 {
			relHomes = append(relHomes, int32(home))
		}
		homeBytes[home] += pd.D.WireBytes()
	}
	refSortTouched(relHomes)
	var xs []exchange
	for _, hm := range relHomes {
		if int(hm) != self {
			xs = append(xs, exchange{peer: int(hm), req: 8 + homeBytes[hm]})
		}
	}
	return xs
}

// oracleCase is one random fetch: P processors, units of up pages, and
// for each unit the missing writes a fetching processor (self) owes.
type oracleCase struct {
	procs, up, numUnits, self int
	units                     []int // the fetched units, in fault order
	miss                      map[int][]*lrc.Interval
	homeOf                    []int // per unit
}

func (c oracleCase) String() string {
	return fmt.Sprintf("procs=%d up=%d units=%d self=%d fetch=%d", c.procs, c.up, c.numUnits, c.self, len(c.units))
}

// diffGen draws random diffs, carving them all from one scratch.
type diffGen struct {
	rng        *rand.Rand
	scr        mem.DiffScratch
	twin, page []byte
}

func newDiffGen(rng *rand.Rand) *diffGen {
	return &diffGen{rng: rng, twin: make([]byte, mem.PageSize), page: make([]byte, mem.PageSize)}
}

// diff returns a non-empty diff of a zero page: one to four runs of one
// to eight random words.
func (g *diffGen) diff() mem.Diff {
	clear(g.page)
	for r := 1 + g.rng.Intn(4); r > 0; r-- {
		w := g.rng.Intn(mem.WordsPerPage)
		for n := 1 + g.rng.Intn(8); n > 0 && w < mem.WordsPerPage; n-- {
			putWord(g.page, w, g.rng.Uint64()|1)
			w++
		}
	}
	return mem.EncodeDiffInto(&g.scr, g.twin, g.page)
}

func putWord(page []byte, w int, v uint64) {
	for i := 0; i < 8; i++ {
		page[w*8+i] = byte(v >> (8 * i))
	}
}

// newOracleCase draws a case whose writer (and home) counts reach up to
// procs: each unit is written by one writer, a few, or many, each with
// one or more intervals, and the fetcher misses a random causal subset.
func newOracleCase(g *diffGen, procs, up int) oracleCase {
	rng := g.rng
	c := oracleCase{
		procs:    procs,
		up:       up,
		numUnits: 1 + rng.Intn(48),
		self:     rng.Intn(procs),
		miss:     make(map[int][]*lrc.Interval),
	}
	// Each writer's intervals are numbered from 1; an interval may
	// write several units, so one interval can be missed in several
	// units' lists.
	type ivKey struct{ w, seq int }
	ivs := map[ivKey]*lrc.Interval{}
	written := map[ivKey][]int{}
	for u := 0; u < c.numUnits; u++ {
		var nw int
		switch rng.Intn(4) {
		case 0, 1:
			nw = 1
		case 2:
			nw = 2 + rng.Intn(3)
		default:
			nw = 1 + rng.Intn(procs)
		}
		for k := 0; k < nw; k++ {
			w := rng.Intn(procs)
			if w == c.self {
				continue
			}
			for seq, n := 1, 1+rng.Intn(3); seq <= n; seq++ {
				key := ivKey{w, seq}
				if !slices.Contains(written[key], u) {
					written[key] = append(written[key], u)
				}
			}
		}
	}
	// Draw in key order: map order would make the case depend on more
	// than the seed.
	keys := make([]ivKey, 0, len(written))
	for key := range written {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b ivKey) int { return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.seq, b.seq)) })
	for _, key := range keys {
		units := written[key]
		slices.Sort(units)
		var diffs []lrc.PageDiff
		for _, u := range units {
			for s := 0; s < up; s++ {
				if rng.Intn(4) != 0 {
					diffs = append(diffs, lrc.PageDiff{Page: u*up + s, D: g.diff()})
				}
			}
		}
		// Small vector entries make equal sums (ties the causal sort
		// breaks by processor, then sequence) common.
		t := vc.New(procs)
		for i := range t {
			t[i] = int32(rng.Intn(2))
		}
		t[key.w] = int32(key.seq)
		ivs[key] = lrc.MakeInterval(vc.IntervalID{Proc: key.w, Seq: int32(key.seq)}, vc.DenseStamp(t), units, diffs)
	}
	for _, key := range keys {
		for _, u := range written[key] {
			if rng.Intn(5) != 0 {
				c.miss[u] = append(c.miss[u], ivs[key])
			}
		}
	}
	for _, m := range c.miss {
		lrc.SortCausally(m)
	}
	c.units = rng.Perm(c.numUnits)[:1+rng.Intn(c.numUnits)]
	homes := 1 + rng.Intn(procs)
	c.homeOf = make([]int, c.numUnits)
	for u := range c.homeOf {
		c.homeOf[u] = rng.Intn(homes)
	}
	return c
}

// tagAndSort is the reference attribution: the remote exchanges in send
// order take the tags 1, 2, …, every item takes its exchange's tag and a
// local item none. It returns the items in application order.
func tagAndSort(xs []exchange, items []fetchItem, self int, causal bool) []fetchItem {
	items = slices.Clone(items)
	var tag int32
	for _, x := range xs {
		if x.peer == self {
			continue
		}
		tag++
		for i := x.lo; i < x.hi; i++ {
			items[i].tag = tag
		}
	}
	return inOrder(items, causal)
}

// sendAndTag sends the exchanges planned in processor self's scratch of
// sys, as a fault's fetch does, and returns the items with the tags its
// collector gave them, counted from the fault's first exchange, in
// application order.
func sendAndTag(sys *System, self int, causal bool) []fetchItem {
	first := sys.col.Exchanges(self)
	p := sys.procs[self]
	p.sendExchanges()
	items := slices.Clone(p.fs.items)
	for i := range items {
		if items[i].tag != 0 {
			items[i].tag -= first
		}
	}
	return inOrder(items, causal)
}

func inOrder(items []fetchItem, causal bool) []fetchItem {
	if causal {
		sortFetchItems(items)
	}
	return items
}

// remote returns the exchanges with peers other than self, priced: the
// peer and the request and reply bytes alone, when priced is set.
func remote(xs []exchange, self int, priced bool) []exchange {
	var out []exchange
	for _, x := range xs {
		if x.peer != self {
			if priced {
				x = exchange{peer: x.peer, req: x.req, reply: x.reply}
			}
			out = append(out, x)
		}
	}
	return out
}

func sameItems(t *testing.T, c oracleCase, got, want []fetchItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %d items, reference %d", c, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.page != w.page || g.sum != w.sum || g.prc != w.prc || g.sq != w.sq {
			t.Fatalf("%v: item %d is page %d key (%d,%d,%d), reference page %d key (%d,%d,%d)",
				c, i, g.page, g.sum, g.prc, g.sq, w.page, w.sum, w.prc, w.sq)
		}
		if g.tag != w.tag {
			t.Fatalf("%v: item %d (page %d) travels in exchange %d, reference %d", c, i, g.page, g.tag, w.tag)
		}
		if !reflect.DeepEqual(g.d.Runs(), w.d.Runs()) {
			t.Fatalf("%v: item %d (page %d) diff %v, reference %v", c, i, g.page, g.d.Runs(), w.d.Runs())
		}
	}
}

// TestFetchPlansMatchReference drives the work-sized fetch plan under
// both home bits, and the flush plan, and the index-table gather over
// the same random missing-write sets, unit sizes and writer/home counts
// up to 256, and requires the same exchanges (peer order, request and
// reply bytes) and the same items in application order, coalesced diffs
// included. The plans' exchanges are sent through a collecting System,
// and every item must carry the reference's tag: the items of one
// exchange share one tag, distinct exchanges have distinct tags, and a
// local copy has none. A home fetch must carry every missing diff,
// uncoalesced, in its unit's home's exchange, and tag and charge every
// page of every fetched unit whole. Each processor's scratch serves
// every case it fetches for, as it does every fault.
func TestFetchPlansMatchReference(t *testing.T) {
	g := newDiffGen(rand.New(rand.NewSource(1)))
	// One System per unit size, with room for a case's pages (up to 48
	// units): a home fetch tags them in the collector.
	var systems [5]*System
	for _, up := range []int{1, 2, 4} {
		sys, err := NewSystem(Config{Procs: 256, UnitPages: up, SegmentBytes: 48 * up * mem.PageSize, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		systems[up] = sys
	}
	coalesced, local := 0, 0
	for i := 0; i < 400; i++ {
		procs := []int{2, 3, 8, 64, 256}[i%5]
		up := []int{1, 2, 4}[i%3]
		sys := systems[up]
		c := newOracleCase(g, procs, up)
		numPages := c.numUnits * up
		p := sys.procs[c.self]
		fs := &p.fs
		// Needs queued in fault order, as a fault's fetch does, for the
		// units with missing writes.
		var fetched []int
		for _, u := range c.units {
			if len(c.miss[u]) > 0 {
				fetched = append(fetched, u)
			}
		}
		plan := func(home bool) {
			fs.needs = fs.needs[:0]
			for _, u := range fetched {
				peer := -1
				if home {
					peer = c.homeOf[u]
				}
				fs.addNeeds(u, c.miss[u], peer)
			}
			fs.plan(up, home)
		}

		// Homeless: every missing write from its writer.
		plan(false)
		diffs := 0
		for _, u := range fetched {
			for _, iv := range c.miss[u] {
				diffs += len(iv.DiffsInUnit(u, up))
			}
		}
		coalesced += diffs - len(fs.items)
		wantXs, wantItems := refPlanDiffs(procs, numPages, up, c.units, c.miss)
		if !slices.Equal(fs.xs, wantXs) {
			t.Fatalf("%v: homeless exchanges %v, reference %v", c, fs.xs, wantXs)
		}
		sameItems(t, c, sendAndTag(sys, c.self, true), tagAndSort(wantXs, wantItems, c.self, true))

		// Home: every fetched unit from its home.
		plan(true)
		wantXs, wantPages := refPlanImages(c.self, procs, up, fetched, c.homeOf)
		local += len(fs.xs) - len(wantXs)
		if got, want := remote(fs.xs, c.self, true), remote(wantXs, c.self, true); !slices.Equal(got, want) {
			t.Fatalf("%v: home exchanges %v, reference %v", c, got, want)
		}
		first := sys.col.Exchanges(c.self)
		gotItems := sendAndTag(sys, c.self, true)
		wantPages = tagAndSort(wantXs, wantPages, c.self, false)
		pageTag := map[int]int32{}
		for _, it := range wantPages {
			pageTag[it.page] = it.tag
		}
		wantItems = nil
		for _, u := range fetched {
			for _, iv := range c.miss[u] {
				sum, prc, sq := iv.CausalKey()
				for _, pd := range iv.DiffsInUnit(u, up) {
					wantItems = append(wantItems, fetchItem{page: pd.Page, d: pd.D, sum: sum, prc: prc, sq: sq, tag: pageTag[pd.Page]})
				}
			}
		}
		sameItems(t, c, gotItems, inOrder(wantItems, true))
		for _, it := range wantPages {
			if row := sys.col.TagRow(c.self, it.page); row != nil {
				clear(row[:])
			}
		}
		before := p.clock.Now()
		p.takePages()
		if got, want := p.clock.Now()-before, sim.Duration(len(wantPages)*mem.WordsPerPage)*sys.cost.ApplyPerWord; got != want {
			t.Fatalf("%v: home pages charged %v, want %v for %d pages", c, got, want, len(wantPages))
		}
		for _, it := range wantPages {
			var got int32
			if row := sys.col.TagRow(c.self, it.page); row != nil && row[0] != 0 {
				got = row[0] - first
			}
			if got != it.tag {
				t.Fatalf("%v: page %d arrives whole in exchange %d, reference %d", c, it.page, got, it.tag)
			}
		}

		// Home release: one random diff per page of the fetched units
		// stands in for one interval's diffs.
		var flushed []lrc.PageDiff
		fs.xs = fs.xs[:0]
		for _, u := range c.units {
			for s := 0; s < up; s++ {
				pd := lrc.PageDiff{Page: u*up + s, D: g.diff()}
				flushed = append(flushed, pd)
				fs.xs = append(fs.xs, exchange{peer: c.homeOf[u], req: pd.D.WireBytes()})
			}
		}
		fs.planFlush()
		if got, want := remote(fs.xs, c.self, false), refPlanFlush(c.self, procs, up, flushed, c.homeOf); !slices.Equal(got, want) {
			t.Fatalf("%v: flushes %v, reference %v", c, got, want)
		}
	}
	if coalesced == 0 || local == 0 {
		t.Errorf("the cases never reached a path: %d diffs coalesced away, %d fetches with a local home", coalesced, local)
	}
}
