package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// coalesceDiffs is the allocating coalesce the engine used before
// coalesced diffs were carved from a DiffScratch, kept as the oracle for
// Coalesce: for each word, the value of the last diff that wrote it,
// every run and run list allocated at its exact size.
func coalesceDiffs(ds []Diff) Diff {
	if len(ds) == 1 {
		return ds[0]
	}
	var vals [WordsPerPage]uint64
	var set [WordsPerPage]bool
	for _, d := range ds {
		for _, r := range d.runs {
			for i, v := range r.Words {
				vals[int(r.Off)+i] = v
				set[int(r.Off)+i] = true
			}
		}
	}
	var out Diff
	w := 0
	for w < WordsPerPage {
		if !set[w] {
			w++
			continue
		}
		start := w
		for w < WordsPerPage && set[w] {
			w++
		}
		run := Run{Off: uint16(start), Words: make([]uint64, w-start)}
		copy(run.Words, vals[start:w])
		out.runs = append(out.runs, run)
	}
	return out
}

// randomChain returns one to five successive diffs of a page, each
// writing one to maxWrites random words.
func randomChain(r *rand.Rand, maxWrites int) []Diff {
	cur := make([]byte, PageSize)
	var chain []Diff
	for k := 0; k < 1+r.Intn(5); k++ {
		next := make([]byte, PageSize)
		copy(next, cur)
		for i := 0; i < 1+r.Intn(maxWrites); i++ {
			putWordAt(next, r.Intn(WordsPerPage), r.Uint64())
		}
		chain = append(chain, EncodeDiff(MakeTwin(cur), next))
		cur = next
	}
	return chain
}

func TestCoalesceDiffsLastWriteWins(t *testing.T) {
	base := make([]byte, PageSize)
	a := make([]byte, PageSize)
	putWordAt(a, 5, 1)
	putWordAt(a, 6, 1)
	d1 := EncodeDiff(MakeTwin(base), a)
	b := make([]byte, PageSize)
	copy(b, a)
	putWordAt(b, 6, 2)
	putWordAt(b, 7, 2)
	d2 := EncodeDiff(MakeTwin(a), b)

	var scr DiffScratch
	c := scr.Coalesce([]Diff{d1, d2})
	dst := make([]byte, PageSize)
	c.Apply(dst)
	if wordAt(dst, 5) != 1 || wordAt(dst, 6) != 2 || wordAt(dst, 7) != 2 {
		t.Fatalf("coalesced = %d %d %d", wordAt(dst, 5), wordAt(dst, 6), wordAt(dst, 7))
	}
	if c.WordCount() != 3 {
		t.Fatalf("WordCount = %d", c.WordCount())
	}
}

func TestCoalesceSingleDiffIsIdentity(t *testing.T) {
	base := make([]byte, PageSize)
	a := make([]byte, PageSize)
	putWordAt(a, 0, 9)
	d := EncodeDiff(MakeTwin(base), a)
	var scr DiffScratch
	if !reflect.DeepEqual(scr.Coalesce([]Diff{d}), d) {
		t.Fatal("single-diff coalesce must be the diff itself")
	}
}

// Property: applying a chain of diffs in order equals applying the
// coalesced diff, the coalesced diff is never larger on the wire, and it
// is the oracle's diff.
func TestPropCoalesceEquivalentToChain(t *testing.T) {
	var scr DiffScratch
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomChain(r, 30))
		},
	}
	f := func(chain []Diff) bool {
		x := make([]byte, PageSize)
		for _, d := range chain {
			d.Apply(x)
		}
		y := make([]byte, PageSize)
		c := scr.Coalesce(chain)
		c.Apply(y)
		if !bytes.Equal(x, y) || !reflect.DeepEqual(c.Runs(), coalesceDiffs(chain).Runs()) {
			return false
		}
		sum := 0
		for _, d := range chain {
			sum += d.WireBytes()
		}
		return c.WireBytes() <= sum
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceAcrossChunks coalesces enough pages through one scratch
// that its word and run slabs move on to later chunks, and requires
// every earlier result to still be the oracle's after the last one: no
// chunk change may reuse storage a live diff points into.
func TestCoalesceAcrossChunks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var scr DiffScratch
	var chains [][]Diff
	var got []Diff
	for len(scr.wordSlab.chunks) < 3 || len(scr.runSlab.chunks) < 2 {
		if len(got) == 1000 {
			t.Fatalf("1000 coalesced pages took %d word and %d run chunks", len(scr.wordSlab.chunks), len(scr.runSlab.chunks))
		}
		chain := randomChain(r, 200)
		chains = append(chains, chain)
		got = append(got, scr.Coalesce(chain))
	}
	for i, chain := range chains {
		if want := coalesceDiffs(chain); !reflect.DeepEqual(got[i].Runs(), want.Runs()) {
			t.Fatalf("page %d of %d: coalesced %v, oracle %v", i, len(chains), got[i].Runs(), want.Runs())
		}
	}
}

// maskChain builds successive diffs of one page, one per 64-byte block
// of masks (a short last block is padded with clean words), at most
// eight: each writes fresh values, drawn from seed, into the words whose
// bits its block sets.
func maskChain(seed int64, masks []byte) []Diff {
	r := rand.New(rand.NewSource(seed))
	cur := make([]byte, PageSize)
	var chain []Diff
	for len(masks) > 0 && len(chain) < 8 {
		var m dirtyMask
		masks = masks[copy(m[:], masks):]
		next := bytes.Clone(cur)
		for w := 0; w < WordsPerPage; w++ {
			if m[w/8]&(1<<(w%8)) != 0 {
				putWordAt(next, w, r.Uint64())
			}
		}
		chain = append(chain, EncodeDiff(MakeTwin(cur), next))
		cur = next
	}
	return chain
}

// FuzzCoalesce lets the fuzzer choose the diff set, and requires
// Coalesce, through one scratch shared by every input so its slabs move
// on to later chunks, to give the oracle's runs and to leave the page
// the whole chain leaves.
func FuzzCoalesce(f *testing.F) {
	for i, mask := range encodeSeeds {
		f.Add(int64(i), append(bytes.Clone(mask), encodeSeeds[(i+1)%len(encodeSeeds)]...))
	}
	f.Add(int64(-1), bytes.Repeat([]byte{0xFF, 0x00, 0x0F}, 200))
	var scr DiffScratch
	f.Fuzz(func(t *testing.T, seed int64, masks []byte) {
		chain := maskChain(seed, masks)
		if len(chain) == 0 {
			return
		}
		got, want := scr.Coalesce(chain), coalesceDiffs(chain)
		if !reflect.DeepEqual(got.Runs(), want.Runs()) {
			t.Fatalf("%d diffs: coalesced %d runs of %d words, oracle %d runs of %d words",
				len(chain), len(got.Runs()), got.WordCount(), len(want.Runs()), want.WordCount())
		}
		x, y := make([]byte, PageSize), make([]byte, PageSize)
		for _, d := range chain {
			d.Apply(x)
		}
		got.Apply(y)
		if !bytes.Equal(x, y) {
			t.Fatalf("%d diffs: the coalesced diff leaves a different page than the chain", len(chain))
		}
	})
}
