package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/expsvc"
	"repro/internal/netmodel"
	"repro/internal/tmk"
)

// The serve-mix request classes. A request's class is what the
// generator meant it to be; the server's Dsm-Cache header says what it
// was.
type reqClass uint8

const (
	classHit     reqClass = iota // a spec answered before, still cached
	classDerived                 // a new network of a family whose capture is stored
	classMiss                    // the first request of a new family: an engine run
	classEcho                    // a miss asked again at once: coalesced, or a hit
	numClasses
)

var classNames = [numClasses]string{"hit", "derived", "miss", "echo"}

// mixShape fixes the size and the class counts of every generator
// round. One round introduces one new family from each replay-safe
// stratum (the misses whose captures are stored), a few from the strata
// that cannot be derived, and asks for the other networks of the
// families the previous round introduced; everything else is a hit. A
// timed round is `batch` generator rounds one after another, so that it
// is as long as a round of the grid workloads.
type mixShape struct {
	requests   int // per generator round
	batch      int // generator rounds per timed round
	lockMisses int // TSP/Water under a static protocol
	adaptive   int // adaptive-protocol misses
	hitWindow  int // hits repeat one of this many most recent specs
	cache      int // the server's result-cache bound
	clients    int
	fillRounds int // generator rounds of misses and derivations before the first hit
	// genRounds is the most generator rounds a run draws, at the 60
	// seconds a run may last: 6 + 5 x (3 + 50). The family universe is
	// checked to hold four times as many families per stratum.
	genRounds int
}

var fullMix = mixShape{
	requests: 2800, batch: 5, lockMisses: 1, adaptive: 1,
	hitWindow: 400, cache: 512, clients: 2, fillRounds: 6, genRounds: 271,
}

var quickMix = mixShape{
	requests: 400, batch: 1, lockMisses: 1, adaptive: 1,
	hitWindow: 100, cache: 256, clients: 2, fillRounds: 2, genRounds: 8,
}

// svcFamily is a spec with the network left open.
type svcFamily struct {
	spec        expsvc.Spec
	msgs, bytes int // totals of the family's engine run; network-invariant when derivable
}

// svcSpec is one distinct spec the generator has introduced.
type svcSpec struct {
	family int
	body   []byte        // the POST body
	sum    atomic.Uint64 // FNV-1a of the first answer; every later answer must match
}

type svcRequest struct {
	class reqClass
	spec  int
}

// generator produces the request sequence. It is a pure function of
// the seed: it never looks at a response.
type generator struct {
	shape    mixShape
	rng      *rand.Rand
	families []svcFamily
	// Strata of not-yet-used families: one queue per replay-safe
	// app × dataset under a static protocol, per lock app × dataset,
	// and per app × dataset under the adaptive protocol.
	derivable [][]int
	lock      [][]int
	adaptive  [][]int
	networks  []string
	specs     []*svcSpec
	// pending are the underived networks of the families the previous
	// round introduced: this round's derived requests.
	pending []pendingDerive
}

type pendingDerive struct {
	family  int
	network string
}

var (
	mixDatasets = []string{"small", "medium"}
	mixProcs    = []int{2, 3, 4, 5, 6, 7, 8}
	mixUnits    = []struct {
		pages   int
		dynamic bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {1, true}}
)

// newGenerator enumerates the family universe, validates every member
// with expsvc.Resolve, and shuffles each stratum with the seed.
func newGenerator(seed int64, shape mixShape) (*generator, error) {
	g := &generator{shape: shape, rng: rand.New(rand.NewSource(seed)), networks: netmodel.Names()}
	strata := map[string]*[]int{}
	var order []string
	for _, app := range apps.Apps() {
		for _, ds := range mixDatasets {
			for _, proto := range tmk.ProtocolNames() {
				for _, u := range mixUnits {
					for _, procs := range mixProcs {
						for _, placement := range tmk.PlacementNames() {
							for _, barrier := range tmk.BarrierNames() {
								for _, scale := range []string{tmk.ScaleSparse, tmk.ScaleDense} {
									spec := expsvc.Spec{
										App: app, Dataset: ds, Protocol: proto,
										UnitPages: u.pages, Dynamic: u.dynamic, Procs: procs,
										Placement: placement, Barrier: barrier, Scale: scale,
									}
									res, err := expsvc.Resolve(spec)
									if err != nil {
										return nil, fmt.Errorf("family universe: %w", err)
									}
									kind := "lock"
									switch {
									case res.Derivable():
										kind = "derivable"
									case proto == "adaptive":
										kind = "adaptive"
									}
									key := kind + "|" + app + "|" + ds
									if strata[key] == nil {
										strata[key] = new([]int)
										order = append(order, key)
									}
									*strata[key] = append(*strata[key], len(g.families))
									g.families = append(g.families, svcFamily{spec: spec})
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(order)
	for _, key := range order {
		q := *strata[key]
		g.rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		switch kind, _, _ := strings.Cut(key, "|"); kind {
		case "derivable":
			g.derivable = append(g.derivable, q)
		case "lock":
			g.lock = append(g.lock, q)
		default:
			g.adaptive = append(g.adaptive, q)
		}
	}
	if len(g.derivable) == 0 || len(g.lock) == 0 || len(g.adaptive) == 0 {
		return nil, fmt.Errorf("family universe: a stratum kind is empty (%d derivable, %d lock, %d adaptive)",
			len(g.derivable), len(g.lock), len(g.adaptive))
	}
	// Every stratum must hold four times the families the longest run
	// can draw from it, so a run never comes near reusing one.
	rounds := shape.genRounds
	for i, q := range g.derivable {
		if len(q) < 4*rounds {
			return nil, fmt.Errorf("family universe: derivable stratum %d has %d families, need %d", i, len(q), 4*rounds)
		}
	}
	for _, kind := range []struct {
		qs  [][]int
		per int
	}{{g.lock, shape.lockMisses}, {g.adaptive, shape.adaptive}} {
		total := 0
		for _, q := range kind.qs {
			total += len(q)
		}
		if total < 4*rounds*kind.per {
			return nil, fmt.Errorf("family universe: %d families for %d misses", total, rounds*kind.per)
		}
	}
	return g, nil
}

func (g *generator) take(strata [][]int, stratum int) int {
	q := &strata[stratum]
	f := (*q)[0]
	*q = (*q)[1:]
	return f
}

func (g *generator) introduce(family int, network string) int {
	spec := g.families[family].spec
	spec.Network = network
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a flat struct of strings, ints and bools
	}
	g.specs = append(g.specs, &svcSpec{family: family, body: body})
	return len(g.specs) - 1
}

// next generates one round. Fill rounds carry no hits. In every round
// the class counts are the same, so rounds are comparable.
func (g *generator) next(fill bool) []svcRequest {
	known := len(g.specs) // hits only repeat specs of earlier rounds
	var reqs []svcRequest
	randomNet := func() string { return g.networks[g.rng.Intn(len(g.networks))] }

	derive := g.pending
	g.pending = nil
	for s := range g.derivable {
		f, net := g.take(g.derivable, s), randomNet()
		reqs = append(reqs, svcRequest{classMiss, g.introduce(f, net)})
		for _, other := range g.networks {
			if other != net {
				g.pending = append(g.pending, pendingDerive{f, other})
			}
		}
	}
	for _, pd := range derive {
		reqs = append(reqs, svcRequest{classDerived, g.introduce(pd.family, pd.network)})
	}
	var loud []svcRequest // misses that are followed by an echo
	// Their strata are drawn at random: walking them in order would give
	// odd and even rounds different datasets, and the traced pass
	// compares odd rounds with even ones.
	for k := 0; k < g.shape.lockMisses; k++ {
		f := g.take(g.lock, g.rng.Intn(len(g.lock)))
		loud = append(loud, svcRequest{classMiss, g.introduce(f, randomNet())})
	}
	for k := 0; k < g.shape.adaptive; k++ {
		f := g.take(g.adaptive, g.rng.Intn(len(g.adaptive)))
		loud = append(loud, svcRequest{classMiss, g.introduce(f, randomNet())})
	}

	g.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	if !fill {
		// Hits walk a shuffled cycle over the window, and the new specs
		// are dropped into that walk at random places: every cached spec
		// is touched once per cycle, so the LRU never drops one the
		// sequence is about to repeat.
		lo := max(known-g.shape.hitWindow, 0)
		total := g.shape.requests - 2*len(loud)
		isNew := make([]bool, total)
		for _, at := range g.rng.Perm(total)[:len(reqs)] {
			isNew[at] = true
		}
		mixed := make([]svcRequest, 0, g.shape.requests)
		var perm []int
		for _, fresh := range isNew {
			if fresh {
				mixed = append(mixed, reqs[0])
				reqs = reqs[1:]
				continue
			}
			if len(perm) == 0 {
				perm = g.rng.Perm(known - lo)
			}
			mixed = append(mixed, svcRequest{classHit, lo + perm[0]})
			perm = perm[1:]
		}
		reqs = mixed
	}
	// Each loud miss goes in at a random place with its echo right
	// behind it, so the other client asks for the spec while it runs.
	for _, m := range loud {
		at := g.rng.Intn(len(reqs) + 1)
		if at < len(reqs) && reqs[at].class == classEcho {
			at++ // never between an earlier miss and its echo
		}
		reqs = append(reqs, svcRequest{}, svcRequest{})
		copy(reqs[at+2:], reqs[at:])
		reqs[at], reqs[at+1] = m, svcRequest{classEcho, m.spec}
	}
	return reqs
}

// --- the workload ------------------------------------------------------------

// serveMix drives an in-process experiment service over loopback HTTP
// with a closed loop of clients: reads beside writes on one cache. Most
// of the wall time is the hit path (decode, Resolve, hash, cache,
// encode), so service work shows here and engine work barely does.
type serveMix struct {
	quick bool
	shape mixShape
	gen   *generator
	svc   *expsvc.Server
	ts    *httptest.Server
	hc    *http.Client
	next  [][]svcRequest // the coming round, one list per generator round

	statsAtStart expsvc.StatsJSON
	// Per timed request: its latency by the disposition the server
	// reported, and the tallies the share guard is applied to.
	lat [4][]float64 // ms, indexed by disposition (dispHit...)
	// digestH is fed the totals answered during set-up, warm-up rounds
	// included.
	digestH digestHash
}

const (
	dispHit = iota
	dispDerived
	dispMiss
	dispCoalesced
)

var dispNames = [4]string{"hit", "derived", "miss", "coalesced"}

func dispIndex(s string) int {
	for i, n := range dispNames {
		if n == s {
			return i
		}
	}
	return -1
}

func (s *serveMix) setup(seed int64) error {
	s.shape = fullMix
	if s.quick {
		s.shape = quickMix
	}
	gen, err := newGenerator(seed, s.shape)
	if err != nil {
		return err
	}
	s.gen = gen
	s.svc = expsvc.New(expsvc.Config{CacheEntries: s.shape.cache, Logger: slog.New(slog.DiscardHandler)})
	s.ts = httptest.NewServer(s.svc)
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * s.shape.clients}}
	s.digestH = newDigest()

	// Fill the cache: rounds of misses and derivations without hits.
	for i := 0; i < s.shape.fillRounds; i++ {
		if r := s.run(s.gen.next(true), firstWarmup, nil); r.failed > 0 {
			return fmt.Errorf("fill round %d failed: %v", i, r.notes)
		}
	}
	return nil
}

func (s *serveMix) units() int { return s.shape.requests * s.shape.batch }

func (s *serveMix) prepare(i int) {
	if i == 0 {
		s.statsAtStart = s.svc.Stats()
	}
	s.next = s.next[:0]
	for k := 0; k < s.shape.batch; k++ {
		s.next = append(s.next, s.gen.next(false))
	}
}

// round runs the generator rounds one after another: the derived
// requests of one need the misses of the one before to have been
// answered.
func (s *serveMix) round(i int, rec *recorder) roundResult {
	var out roundResult
	for _, reqs := range s.next {
		r := s.run(reqs, i, rec)
		out.attempted += r.attempted
		out.failed += r.failed
		out.notes = append(out.notes, r.notes...)
	}
	return out
}

// answer is the part of a report the client checks.
type answer struct {
	Derived bool `json:"derived"`
	Trials  []struct {
		Messages int `json:"messages"`
		Bytes    int `json:"bytes"`
	} `json:"trials"`
}

// run sends one generator round through the clients and checks every
// answer. A round below 0 is part of set-up: it is not timed, and its
// answers feed the digest.
func (s *serveMix) run(reqs []svcRequest, round int, rec *recorder) roundResult {
	var (
		out    roundResult
		mu     sync.Mutex
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	root := rec.begin("expsvc.round", noSpan, round)
	type sample struct {
		disp int
		ms   float64
	}
	samples := make([][]sample, s.shape.clients)
	for c := 0; c < s.shape.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			local := make([]sample, 0, len(reqs)/s.shape.clients+16)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(reqs) {
					break
				}
				rq := reqs[i]
				spec := s.gen.specs[rq.spec]
				start := time.Now()
				disp, err := s.post(spec.body, &buf)
				end := time.Now()
				if err == nil {
					err = s.checkAnswer(rq, spec, disp, buf.Bytes())
				}
				rec.add("expsvc.request", disp, root, round, start, end)
				if err != nil {
					mu.Lock()
					out.fail(fmt.Errorf("%s request %s: %w", classNames[rq.class], spec.body, err))
					mu.Unlock()
					continue
				}
				if di := dispIndex(disp); di >= 0 {
					local = append(local, sample{di, float64(end.Sub(start)) / 1e6})
				}
			}
			samples[c] = local
		}(c)
	}
	wg.Wait()
	rec.end(root)
	out.attempted = len(reqs)
	if round >= 0 {
		for _, local := range samples {
			for _, sm := range local {
				s.lat[sm.disp] = append(s.lat[sm.disp], sm.ms)
			}
		}
	} else {
		// Set-up responses feed the digest in request order.
		for _, rq := range reqs {
			if rq.class == classMiss || rq.class == classDerived {
				f := s.gen.families[s.gen.specs[rq.spec].family]
				if apps.ReplaySafe(f.spec.App) && f.spec.Protocol != "adaptive" {
					fmt.Fprintf(s.digestH, "%s %d %d\n", s.gen.specs[rq.spec].body, f.msgs, f.bytes)
				}
			}
		}
	}
	return out
}

func (s *serveMix) post(body []byte, buf *bytes.Buffer) (string, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.Header.Get(expsvc.HeaderCache), nil
}

// checkAnswer verifies one response: a repeat must be byte-identical to
// the first answer for its spec, a first answer must be a one-trial
// report, and a derived one must carry the message and byte totals of
// its family's engine run.
func (s *serveMix) checkAnswer(rq svcRequest, spec *svcSpec, disp string, body []byte) error {
	if dispIndex(disp) < 0 {
		return fmt.Errorf("unknown %s %q", expsvc.HeaderCache, disp)
	}
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64() | 1 // never the zero that means "not seen yet"
	switch rq.class {
	case classHit:
		if first := spec.sum.Load(); first != sum {
			return fmt.Errorf("answer (%s) differs from the first answer for this spec", disp)
		}
		return nil
	case classEcho:
		if first := spec.sum.Load(); first != 0 && first != sum {
			return fmt.Errorf("coalesced answer differs from the miss's answer")
		}
		return nil
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("report does not parse: %w", err)
	}
	if len(a.Trials) != 1 || a.Trials[0].Messages <= 0 {
		return fmt.Errorf("report is not a one-trial run with messages")
	}
	fam := &s.gen.families[spec.family]
	if rq.class == classMiss {
		fam.msgs, fam.bytes = a.Trials[0].Messages, a.Trials[0].Bytes
	} else if a.Trials[0].Messages != fam.msgs || a.Trials[0].Bytes != fam.bytes {
		return fmt.Errorf("derived totals %d msgs/%d bytes differ from the engine run's %d/%d",
			a.Trials[0].Messages, a.Trials[0].Bytes, fam.msgs, fam.bytes)
	}
	spec.sum.Store(sum)
	return nil
}

// shares returns each disposition's share of the timed requests.
func (s *serveMix) shares() (share [4]float64, total int) {
	for _, l := range s.lat {
		total += len(l)
	}
	if total == 0 {
		return share, 0
	}
	for i, l := range s.lat {
		share[i] = float64(len(l)) / float64(total)
	}
	return share, total
}

// verify applies the share guard: req_ms_p50 is a statement about hits
// and req_ms_p99 about derivations only while the classes keep their
// places in the latency order.
func (s *serveMix) verify() roundResult {
	share, total := s.shares()
	out := roundResult{attempted: 1}
	if total == 0 || s.quick { // the quick shape is a smoke test, not a mix
		return out
	}
	if share[dispHit] < 0.95 || share[dispDerived] < 0.02 || share[dispMiss]+share[dispCoalesced] > 0.007 {
		out.fail(fmt.Errorf("class shares left their bounds: hit %.4f (>= 0.95), derived %.4f (>= 0.02), miss+coalesced %.4f (<= 0.007)",
			share[dispHit], share[dispDerived], share[dispMiss]+share[dispCoalesced]))
	}
	return out
}

func (s *serveMix) digest() string      { return s.digestH.sum() }
func (s *serveMix) layer() *layerCounts { return nil } // the engine runs inside the server, out of the benchmark's sight

func (s *serveMix) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
}
