// Package instrument implements the paper's §5.3 measurement
// methodology. It records every read, write, and diff application at word
// granularity and classifies communication after the run:
//
//   - a diffed word applied to a replica is useful if it is read before
//     being overwritten, useless otherwise (including never touched);
//   - a data message (diff request/reply exchange) is useless if it
//     carries no useful word; synchronization messages are always useful;
//   - useless data carried on useful messages is "piggybacked" useless
//     data;
//   - the false-sharing signature is the histogram, over access faults,
//     of the number of concurrent writers contacted, with each bar split
//     into the useful and useless messages of those faults.
package instrument

import "repro/internal/mem"

// DataMsg tracks one diff request/reply exchange with one writer.
type DataMsg struct {
	Writer int
	Reader int

	index      int32 // position in Collector.data[Reader]
	totalWords int32
	useful     int32 // words read before overwritten (owned by Reader's goroutine)
}

// Useful reports whether the exchange carried at least one useful word.
// Valid only after the run completes.
func (m *DataMsg) Useful() bool { return m.useful > 0 }

// TotalWords returns the number of diffed words the exchange carried.
func (m *DataMsg) TotalWords() int { return int(m.totalWords) }

// UsefulWords returns the number of words read before being overwritten.
func (m *DataMsg) UsefulWords() int { return int(m.useful) }

// Fault records one access miss that reached the fault handler.
type Fault struct {
	Proc    int
	Page    int
	Writers int // concurrent writers contacted (0 = no fetch needed)
	msgs    []int32
}

// Collector gathers per-word usefulness, per-exchange accounting, and
// fault events for one run. Every array is per processor and only
// touched by that processor's goroutine until Finalize — an exchange is
// always created by the faulting *reader*, its diffs are tagged into
// the reader's tag row, and reads consult only that row — so the
// collector needs no locking, on the access hot path or off it.
type Collector struct {
	nprocs int
	npages int
	// tags[proc][page] is the page's word-tag row (DataMsg index+1 per
	// word, 0 = none), materialized on the first diff tagged into that
	// page for that processor. A processor only ever reads tags where a
	// diff was applied, so a nil row means "no tags" and the per-proc
	// footprint is O(pages fetched), not O(segment) — the difference
	// between 8 and 1024 processors over a large segment.
	tags [][][]int32

	data [][]*DataMsg // [proc]: exchanges created by proc's faults

	faults [][]Fault // per proc, appended only by that proc
}

// NewCollector returns a collector for nprocs processors over a segment
// of segBytes bytes.
func NewCollector(nprocs, segBytes int) *Collector {
	npages := mem.RoundUpPages(segBytes) / mem.PageSize
	c := &Collector{
		nprocs: nprocs,
		npages: npages,
		tags:   make([][][]int32, nprocs),
		data:   make([][]*DataMsg, nprocs),
		faults: make([][]Fault, nprocs),
	}
	for p := range c.tags {
		c.tags[p] = make([][]int32, npages)
	}
	return c
}

// TagRow returns proc's word-tag row for page, nil while no diff has
// been tagged into it. The engine's access path caches the row and
// works on it directly: a read of a word whose tag is non-zero calls
// Credit and zeroes the tag, a write zeroes it. Rows are only touched on
// proc's goroutine.
func (c *Collector) TagRow(proc, page int) []int32 { return c.tags[proc][page] }

// Credit records that proc read a word carrying tag before overwriting
// it: the exchange behind the tag carried one more useful word.
func (c *Collector) Credit(proc int, tag int32) { c.data[proc][tag-1].useful++ }

// OnRead records a read of the word at byte address addr by proc. If the
// word was applied by a diff and not yet overwritten, the carrying
// exchange is credited with a useful word.
func (c *Collector) OnRead(proc int, addr mem.Addr) {
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

// OnWrite records a write: an applied-but-unread word overwritten locally
// becomes useless (its tag is dropped without credit).
func (c *Collector) OnWrite(proc int, addr mem.Addr) {
	if row := c.TagRow(proc, mem.PageOf(addr)); row != nil {
		row[mem.WordIndex(addr)] = 0
	}
}

// NewDataMsg registers a diff exchange between reader and writer. It
// must be called on the reader's goroutine (exchanges are created by
// the faulting reader), right after the exchange's SendExchange: the
// engine registers every data exchange it sends, and nothing else.
func (c *Collector) NewDataMsg(writer, reader int) *DataMsg {
	m := &DataMsg{Writer: writer, Reader: reader}
	m.index = int32(len(c.data[reader]))
	c.data[reader] = append(c.data[reader], m)
	return m
}

// TagDiff marks every word of d (applied to page in proc's replica) as
// carried by exchange m. A word already tagged by an earlier exchange is
// re-tagged; the earlier exchange simply never receives the credit
// (overwritten before read).
func (c *Collector) TagDiff(proc, page int, d mem.Diff, m *DataMsg) {
	tag := m.index + 1
	row := c.tags[proc][page]
	if row == nil {
		row = make([]int32, mem.WordsPerPage)
		c.tags[proc][page] = row
	}
	d.ForEachWord(func(w int) {
		row[w] = tag
	})
	m.totalWords += int32(d.WordCount())
}

// OnFault records one access miss by proc on page, contacting the given
// exchanges (one per concurrent writer).
func (c *Collector) OnFault(proc, page int, msgs []*DataMsg) {
	f := Fault{Proc: proc, Page: page, Writers: len(msgs)}
	for _, m := range msgs {
		f.msgs = append(f.msgs, m.index)
	}
	c.faults[proc] = append(c.faults[proc], f)
}

// SigBucket is one bar of the false-sharing signature: the faults that
// contacted exactly Writers concurrent writers, and the useful/useless
// messages those faults exchanged. The json tags define the -json CLI
// schema (snake_case, like the report layer).
type SigBucket struct {
	Writers     int `json:"writers"`
	Faults      int `json:"faults"`
	UsefulMsgs  int `json:"useful_msgs"`
	UselessMsgs int `json:"useless_msgs"`
}

// Breakdown splits message or byte counts per the paper's figures.
type Breakdown struct {
	Useful  int `json:"useful"`
	Useless int `json:"useless"`
}

// Total returns Useful + Useless.
func (b Breakdown) Total() int { return b.Useful + b.Useless }

// Stats is the per-run communication breakdown of Figures 1–3. The
// json tags define the -json CLI schema.
type Stats struct {
	// Messages counts every protocol message. Useless = both legs of
	// data exchanges that carried no useful word; synchronization
	// messages and useful exchanges are Useful.
	Messages Breakdown `json:"messages"`
	// DataBytes classifies diff payload words (×8 bytes). Piggybacked
	// is useless data carried on useful messages; UselessBytes rides on
	// useless messages.
	UsefulBytes      int `json:"useful_bytes"`
	UselessBytes     int `json:"useless_bytes"`
	PiggybackedBytes int `json:"piggybacked_bytes"`
	// TotalWireBytes is all payload bytes on the network, including
	// write notices and sync traffic.
	TotalWireBytes int `json:"total_wire_bytes"`
	// Faults counts access misses that reached the fault handler;
	// ZeroFetchFaults is the subset that needed no remote data (cold
	// pages, or group members whose updates were prefetched).
	Faults          int `json:"faults"`
	ZeroFetchFaults int `json:"zero_fetch_faults"`
	// Exchanges counts data request/reply pairs.
	Exchanges int `json:"exchanges"`
	// Signature maps concurrent-writer cardinality to its bar.
	Signature map[int]*SigBucket `json:"signature,omitempty"`
}

// TotalDataBytes returns all diff payload bytes.
func (s *Stats) TotalDataBytes() int {
	return s.UsefulBytes + s.UselessBytes + s.PiggybackedBytes
}

// Finalize classifies the run from the network's totals: msgs and
// wireBytes are every message and wire byte of the run, and dataMsgs
// the data messages (diff requests plus replies) among them. Every data
// message belongs to exactly one registered exchange — NewDataMsg
// follows each data SendExchange — so the useless messages are the data
// messages less both legs of every useful exchange. Call only after all
// processor goroutines have finished.
func (c *Collector) Finalize(msgs, wireBytes, dataMsgs int) *Stats {
	s := &Stats{Signature: make(map[int]*SigBucket), TotalWireBytes: wireBytes}

	// Classify exchanges.
	useful := 0
	for _, procMsgs := range c.data {
		for _, m := range procMsgs {
			s.Exchanges++
			if m.Useful() {
				useful++
				s.UsefulBytes += int(m.useful) * mem.WordSize
				s.PiggybackedBytes += int(m.totalWords-m.useful) * mem.WordSize
			} else {
				s.UselessBytes += int(m.totalWords) * mem.WordSize
			}
		}
	}

	// Classify messages: synchronization messages are always useful.
	s.Messages.Useless = dataMsgs - 2*useful
	s.Messages.Useful = msgs - s.Messages.Useless

	// Signature.
	for p := range c.faults {
		for i := range c.faults[p] {
			f := &c.faults[p][i]
			s.Faults++
			if f.Writers == 0 {
				s.ZeroFetchFaults++
				continue
			}
			b := s.Signature[f.Writers]
			if b == nil {
				b = &SigBucket{Writers: f.Writers}
				s.Signature[f.Writers] = b
			}
			b.Faults++
			for _, idx := range f.msgs {
				if c.data[p][idx].Useful() {
					b.UsefulMsgs += 2 // request + reply
				} else {
					b.UselessMsgs += 2
				}
			}
		}
	}
	return s
}
