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

// exchange is the accounting of one diff request/reply exchange with one
// writer: the diffed words it carried and how many of them its reader
// read before overwriting (counted on the reader's goroutine).
type exchange struct {
	totalWords int32
	useful     int32
}

// fault records one access miss that reached the fault handler. Its
// exchanges, one per concurrent writer contacted, are the reader's
// data[first : first+writers]: every exchange is registered by the
// faulting reader's own fetch, inside the fault, so one fault's
// exchanges are contiguous.
type fault struct {
	first, writers int32
}

// Collector gathers per-word usefulness, per-exchange accounting, and
// fault events for one run. Every array is per processor and only
// touched by that processor's goroutine until Finalize — an exchange is
// always created by the faulting *reader*, its diffs are tagged into
// the reader's tag row, and reads consult only that row — so the
// collector needs no locking, on the access hot path or off it.
type Collector struct {
	// tags[proc][page] is the page's word-tag row (an exchange's tag per
	// word, 0 = none), carved from proc's rows chunk on the first diff
	// tagged into that page for that processor. A processor only ever
	// reads tags where a diff was applied, so a nil row means "no tags"
	// and the per-proc footprint is O(pages fetched), not O(segment) —
	// the difference between 8 and 1024 processors over a large segment.
	tags [][]*[mem.WordsPerPage]int32
	rows []rowChunk // [proc]: where proc's next tag row comes from

	data [][]exchange // [proc]: exchanges created by proc's faults; tag = index+1

	faults [][]fault // per proc, appended only by that proc
}

// rowChunk carves tag rows out of chunks whose lengths double from one
// row to maxChunkRows: a processor that fetches a few pages holds a few
// rows, one that fetches hundreds pays an allocation per maxChunkRows.
// Fresh chunks are zeroed, and a collector lives one run, so a carved
// row starts with no tags. Rows never come from mem's page recycler:
// listed there they displaced replica frames under the recycler's one
// bound (DESIGN §15).
type rowChunk struct {
	free []int32 // unused tail of the current chunk
	last int     // rows in the current chunk
}

const maxChunkRows = 16

// row returns a zeroed tag row.
func (rc *rowChunk) row() *[mem.WordsPerPage]int32 {
	if len(rc.free) < mem.WordsPerPage {
		rc.last = min(max(1, 2*rc.last), maxChunkRows)
		rc.free = make([]int32, rc.last*mem.WordsPerPage)
	}
	r := (*[mem.WordsPerPage]int32)(rc.free)
	rc.free = rc.free[mem.WordsPerPage:]
	return r
}

// NewCollector returns a collector for nprocs processors over a segment
// of segBytes bytes.
func NewCollector(nprocs, segBytes int) *Collector {
	npages := mem.RoundUpPages(segBytes) / mem.PageSize
	c := &Collector{
		tags:   make([][]*[mem.WordsPerPage]int32, nprocs),
		rows:   make([]rowChunk, nprocs),
		data:   make([][]exchange, nprocs),
		faults: make([][]fault, nprocs),
	}
	for p := range c.tags {
		c.tags[p] = make([]*[mem.WordsPerPage]int32, npages)
	}
	return c
}

// TagRow returns proc's word-tag row for page, nil while no diff has
// been tagged into it. The engine's access path caches the row and
// works on it directly: a read of a word whose tag is non-zero calls
// Credit and zeroes the tag, a write zeroes it. Rows are only touched on
// proc's goroutine.
func (c *Collector) TagRow(proc, page int) *[mem.WordsPerPage]int32 { return c.tags[proc][page] }

// Credit records that proc read a word carrying tag before overwriting
// it: the exchange behind the tag carried one more useful word.
func (c *Collector) Credit(proc int, tag int32) { c.data[proc][tag-1].useful++ }

// NewDataMsg registers a diff exchange of reader's and returns its tag,
// the handle TagDiff takes. It must be called on the reader's goroutine
// (exchanges are created by the faulting reader), inside the fault and
// right after the exchange's SendExchange: the engine registers every
// data exchange it sends, and nothing else.
func (c *Collector) NewDataMsg(reader int) int32 {
	c.data[reader] = append(c.data[reader], exchange{})
	return int32(len(c.data[reader]))
}

// TagDiff marks every word of d (applied to page in proc's replica) as
// carried by the exchange tag names. A word already tagged by an earlier
// exchange is re-tagged; the earlier exchange simply never receives the
// credit (overwritten before read).
func (c *Collector) TagDiff(proc, page int, d mem.Diff, tag int32) {
	row := c.tagRow(proc, page)
	d.ForEachWord(func(w int) {
		row[w] = tag
	})
	c.data[proc][tag-1].totalWords += int32(d.WordCount())
}

// TagPage is TagDiff for a whole page: every word of page carries tag,
// as a home's full-page image delivers it.
func (c *Collector) TagPage(proc, page int, tag int32) {
	row := c.tagRow(proc, page)
	for w := range row {
		row[w] = tag
	}
	c.data[proc][tag-1].totalWords += mem.WordsPerPage
}

// tagRow returns proc's tag row for page, taking a zeroed one on first
// use.
func (c *Collector) tagRow(proc, page int) *[mem.WordsPerPage]int32 {
	row := c.tags[proc][page]
	if row == nil {
		row = c.rows[proc].row()
		c.tags[proc][page] = row
	}
	return row
}

// Exchanges returns how many exchanges proc has registered: taken when a
// fault begins, it is the first of the fault's exchanges (see OnFault).
func (c *Collector) Exchanges(proc int) int32 { return int32(len(c.data[proc])) }

// OnFault records one access miss by proc whose exchanges, one per
// concurrent writer contacted, are every exchange proc registered since
// Exchanges returned first.
func (c *Collector) OnFault(proc int, first int32) {
	c.faults[proc] = append(c.faults[proc], fault{first: first, writers: c.Exchanges(proc) - first})
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
	for _, xs := range c.data {
		for _, x := range xs {
			s.Exchanges++
			if x.useful > 0 {
				useful++
				s.UsefulBytes += int(x.useful) * mem.WordSize
				s.PiggybackedBytes += int(x.totalWords-x.useful) * mem.WordSize
			} else {
				s.UselessBytes += int(x.totalWords) * mem.WordSize
			}
		}
	}

	// Classify messages: synchronization messages are always useful.
	s.Messages.Useless = dataMsgs - 2*useful
	s.Messages.Useful = msgs - s.Messages.Useless

	// Signature.
	for p, faults := range c.faults {
		for _, f := range faults {
			s.Faults++
			if f.writers == 0 {
				s.ZeroFetchFaults++
				continue
			}
			w := int(f.writers)
			b := s.Signature[w]
			if b == nil {
				b = &SigBucket{Writers: w}
				s.Signature[w] = b
			}
			b.Faults++
			for _, x := range c.data[p][f.first : f.first+f.writers] {
				if x.useful > 0 {
					b.UsefulMsgs += 2 // request + reply
				} else {
					b.UselessMsgs += 2
				}
			}
		}
	}
	return s
}
