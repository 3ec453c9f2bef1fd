package instrument

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/simnet"
)

// diffOfWords builds a diff that sets the given word offsets (page
// relative) to arbitrary nonzero values.
func diffOfWords(words ...int) mem.Diff {
	page := make([]byte, mem.PageSize)
	tw := mem.MakeTwin(page)
	for _, w := range words {
		page[w<<mem.WordShift] = 0xab
	}
	return mem.EncodeDiff(tw, page)
}

func addrOf(page, word int) mem.Addr {
	return mem.PageBase(page) + word*mem.WordSize
}

// onRead is the engine's read step on the collector, one word at a
// time: a read of a word a diff applied, not yet overwritten, credits
// the exchange that carried it, once.
func (c *Collector) onRead(proc int, addr mem.Addr) {
	row := c.TagRow(proc, mem.PageOf(addr))
	if row == nil {
		return
	}
	w := mem.WordIndex(addr)
	if tag := row[w]; tag != 0 {
		c.Credit(proc, tag)
		row[w] = 0
	}
}

// onWrite is the engine's write step: an applied-but-unread word
// overwritten locally becomes useless (its tag is dropped without
// credit).
func (c *Collector) onWrite(proc int, addr mem.Addr) {
	if row := c.TagRow(proc, mem.PageOf(addr)); row != nil {
		row[mem.WordIndex(addr)] = 0
	}
}

// msg returns the accounting of reader's exchange tag.
func (c *Collector) msg(reader int, tag int32) exchange { return c.data[reader][tag-1] }

func TestUsefulWordReadBeforeOverwrite(t *testing.T) {
	c := NewCollector(2, 2*mem.PageSize)
	m := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(3, 4), m)
	if c.msg(0, m).totalWords != 2 {
		t.Fatalf("totalWords = %d", c.msg(0, m).totalWords)
	}
	c.onRead(0, addrOf(0, 3))
	if c.msg(0, m).useful != 1 {
		t.Fatalf("useful = %d", c.msg(0, m).useful)
	}
	// Re-reading the same word must not double-credit.
	c.onRead(0, addrOf(0, 3))
	if c.msg(0, m).useful != 1 {
		t.Fatal("double credit on repeated read")
	}
}

func TestUselessWordOverwrittenBeforeRead(t *testing.T) {
	c := NewCollector(1, mem.PageSize)
	m := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(7), m)
	c.onWrite(0, addrOf(0, 7))
	c.onRead(0, addrOf(0, 7)) // reads own write, not the diffed value
	if c.msg(0, m).useful != 0 {
		t.Fatal("overwritten-before-read word must not be useful")
	}
}

func TestUntouchedWordsAreUseless(t *testing.T) {
	c := NewCollector(1, mem.PageSize)
	m := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(0, 1, 2), m)
	st := c.Finalize(2, 16+64, 2)
	if st.UselessBytes != 3*mem.WordSize || st.UsefulBytes != 0 {
		t.Fatalf("useless=%d useful=%d", st.UselessBytes, st.UsefulBytes)
	}
}

func TestPiggybackedUselessData(t *testing.T) {
	c := NewCollector(1, mem.PageSize)
	m := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(0, 1, 2, 3), m)
	c.onRead(0, addrOf(0, 0)) // one useful word ⇒ message useful
	st := c.Finalize(2, 16+64, 2)
	if st.UsefulBytes != 1*mem.WordSize {
		t.Fatalf("useful bytes = %d", st.UsefulBytes)
	}
	if st.PiggybackedBytes != 3*mem.WordSize {
		t.Fatalf("piggybacked bytes = %d", st.PiggybackedBytes)
	}
	if st.UselessBytes != 0 {
		t.Fatalf("useless bytes = %d", st.UselessBytes)
	}
}

func TestRetagTransfersCredit(t *testing.T) {
	// A second exchange re-diffs the same word before it is read: the
	// first exchange's copy was overwritten before read ⇒ useless; the
	// read credits only the second exchange.
	c := NewCollector(1, mem.PageSize)
	m1 := c.NewDataMsg(0)
	m2 := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(9), m1)
	c.TagDiff(0, 0, diffOfWords(9), m2)
	c.onRead(0, addrOf(0, 9))
	if c.msg(0, m1).useful != 0 {
		t.Fatal("first exchange must be useless")
	}
	if c.msg(0, m2).useful == 0 {
		t.Fatal("second exchange must be useful")
	}
}

func TestMessageClassification(t *testing.T) {
	c := NewCollector(1, mem.PageSize)
	mu := c.NewDataMsg(0) // will be useful
	ml := c.NewDataMsg(0) // will be useless
	c.TagDiff(0, 0, diffOfWords(0), mu)
	c.TagDiff(0, 0, diffOfWords(1), ml)
	c.onRead(0, addrOf(0, 0))

	// The run: both exchanges' requests (16 bytes) and replies (100),
	// one barrier arrival (8) and one release (24).
	st := c.Finalize(6, 16+100+16+100+8+24, 4)
	if st.Messages.Useful != 4 { // useful req+reply + 2 sync
		t.Fatalf("useful msgs = %d", st.Messages.Useful)
	}
	if st.Messages.Useless != 2 {
		t.Fatalf("useless msgs = %d", st.Messages.Useless)
	}
	if st.Messages.Total() != 6 {
		t.Fatalf("total = %d", st.Messages.Total())
	}
	if st.TotalWireBytes != 16+100+16+100+8+24 {
		t.Fatalf("wire bytes = %d", st.TotalWireBytes)
	}
	if st.Exchanges != 2 {
		t.Fatalf("exchanges = %d", st.Exchanges)
	}
}

func TestSignatureBuckets(t *testing.T) {
	c := NewCollector(1, 4*mem.PageSize)
	// Fault 1: two writers, one useful one useless.
	first := c.Exchanges(0)
	a := c.NewDataMsg(0)
	b := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(0), a)
	c.TagDiff(0, 0, diffOfWords(1), b)
	c.OnFault(0, first)
	c.onRead(0, addrOf(0, 0))
	// Fault 2: one writer, useful.
	first = c.Exchanges(0)
	d := c.NewDataMsg(0)
	c.TagDiff(0, 1, diffOfWords(0), d)
	c.OnFault(0, first)
	c.onRead(0, addrOf(1, 0))
	// Fault 3: prefetched page, no fetch.
	c.OnFault(0, c.Exchanges(0))

	// Three exchanges, six data messages, no synchronization.
	st := c.Finalize(6, 0, 6)
	if st.Faults != 3 || st.ZeroFetchFaults != 1 {
		t.Fatalf("faults = %d, zero-fetch = %d", st.Faults, st.ZeroFetchFaults)
	}
	if st.Messages.Useful != 4 || st.Messages.Useless != 2 {
		t.Fatalf("messages = %+v, want 4 useful, 2 useless", st.Messages)
	}
	b2 := st.Signature[2]
	if b2 == nil || b2.Faults != 1 || b2.UsefulMsgs != 2 || b2.UselessMsgs != 2 {
		t.Fatalf("bucket 2 = %+v", b2)
	}
	b1 := st.Signature[1]
	if b1 == nil || b1.Faults != 1 || b1.UsefulMsgs != 2 || b1.UselessMsgs != 0 {
		t.Fatalf("bucket 1 = %+v", b1)
	}
	if st.Signature[3] != nil {
		t.Fatal("unexpected bucket 3")
	}
}

func TestPerProcTagIsolation(t *testing.T) {
	// The same global word tagged for proc 0 must not be visible to
	// proc 1's reads.
	c := NewCollector(2, mem.PageSize)
	m := c.NewDataMsg(0)
	c.TagDiff(0, 0, diffOfWords(5), m)
	c.onRead(1, addrOf(0, 5))
	if c.msg(0, m).useful != 0 {
		t.Fatal("cross-processor credit")
	}
	c.onRead(0, addrOf(0, 5))
	if c.msg(0, m).useful == 0 {
		t.Fatal("owner read must credit")
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Useful: 3, Useless: 4}
	if b.Total() != 7 {
		t.Fatal("Breakdown.Total")
	}
	s := &Stats{UsefulBytes: 8, UselessBytes: 16, PiggybackedBytes: 24}
	if s.TotalDataBytes() != 48 {
		t.Fatal("TotalDataBytes")
	}
}

// record is one message of a per-message log: its ID, kind and wire
// size.
type record struct {
	id    int
	kind  simnet.MsgKind
	bytes int
}

// sent names the request and reply records of one registered data
// exchange: its reader and tag.
type sent struct {
	reader     int
	tag        int32
	req, reply int
}

// finalizeFromRecords is the classifier that walks a complete
// per-message log: a data message is useful iff its ID belongs to a
// useful exchange, every other message is useful, and the wire bytes
// are the records' sum. It is the reference Finalize is checked
// against.
func (c *Collector) finalizeFromRecords(records []record, exchanges []sent) *Stats {
	s := &Stats{Signature: make(map[int]*SigBucket)}

	usefulByID := make(map[int]bool)
	for _, x := range exchanges {
		m := c.msg(x.reader, x.tag)
		usefulByID[x.req] = m.useful > 0
		usefulByID[x.reply] = m.useful > 0
	}
	for _, xs := range c.data {
		for _, m := range xs {
			s.Exchanges++
			if m.useful > 0 {
				s.UsefulBytes += int(m.useful) * mem.WordSize
				s.PiggybackedBytes += int(m.totalWords-m.useful) * mem.WordSize
			} else {
				s.UselessBytes += int(m.totalWords) * mem.WordSize
			}
		}
	}

	for _, r := range records {
		s.TotalWireBytes += r.bytes
		if r.kind.IsData() && !usefulByID[r.id] {
			s.Messages.Useless++
		} else {
			s.Messages.Useful++
		}
	}

	for p := range c.faults {
		for _, f := range c.faults[p] {
			s.Faults++
			if f.writers == 0 {
				s.ZeroFetchFaults++
				continue
			}
			b := s.Signature[int(f.writers)]
			if b == nil {
				b = &SigBucket{Writers: int(f.writers)}
				s.Signature[int(f.writers)] = b
			}
			b.Faults++
			for tag := f.first + 1; tag <= f.first+f.writers; tag++ {
				if c.msg(p, tag).useful > 0 {
					b.UsefulMsgs += 2
				} else {
					b.UselessMsgs += 2
				}
			}
		}
	}
	return s
}

// TestFinalizeMatchesRecordWalk drives random runs — faults contacting
// random writers with random word sets, reads and writes that credit or
// drop those words, and synchronization traffic between them — and
// requires the count-based Finalize to agree with the record walk on
// every Stats field.
func TestFinalizeMatchesRecordWalk(t *testing.T) {
	syncKinds := []simnet.MsgKind{
		simnet.LockRequest, simnet.LockForward, simnet.LockGrant,
		simnet.BarrierArrive, simnet.BarrierRelease,
		simnet.HomeFlush, simnet.HomeHandoff, simnet.HomeMigrate,
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		procs, pages := 1+rng.Intn(4), 1+rng.Intn(3)
		c := NewCollector(procs, pages*mem.PageSize)
		var records []record
		var exchanges []sent
		send := func(kind simnet.MsgKind, bytes int) int {
			records = append(records, record{id: len(records) + 1, kind: kind, bytes: bytes})
			return len(records)
		}
		for step := 0; step < 40; step++ {
			proc, page := rng.Intn(procs), rng.Intn(pages)
			switch rng.Intn(4) {
			case 0:
				send(syncKinds[rng.Intn(len(syncKinds))], rng.Intn(256))
			case 1: // a fault contacting zero or more writers
				first := c.Exchanges(proc)
				for w := rng.Intn(4); w > 0; w-- {
					x := sent{reader: proc, req: send(simnet.DiffRequest, 16+8*rng.Intn(4))}
					x.reply = send(simnet.DiffReply, rng.Intn(4096))
					x.tag = c.NewDataMsg(proc)
					var words []int
					for i := rng.Intn(4); i > 0; i-- {
						words = append(words, rng.Intn(16))
					}
					c.TagDiff(proc, page, diffOfWords(words...), x.tag)
					exchanges = append(exchanges, x)
				}
				c.OnFault(proc, first)
			default: // an access that may credit or drop a tagged word
				a := addrOf(page, rng.Intn(16))
				if rng.Intn(2) == 0 {
					c.onRead(proc, a)
				} else {
					c.onWrite(proc, a)
				}
			}
		}
		// Concurrent senders interleave: the walk must not depend on
		// the log's order.
		rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
		wire, data := 0, 0
		for _, r := range records {
			wire += r.bytes
			if r.kind.IsData() {
				data++
			}
		}
		want := c.finalizeFromRecords(records, exchanges)
		if got := c.Finalize(len(records), wire, data); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Finalize = %+v, record walk = %+v", trial, got, want)
		}
	}
}
