package apps_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/tmk"
)

// Every application must register its paper dataset(s) plus the
// small/medium/large sweep, and an empty dataset must select the
// first-registered one. Storm is the one deliberate addition beyond
// the paper's 8: a synthetic notice-storm stressor for the scaling
// sweeps, so it carries no paper dataset.
func TestRegistryInventory(t *testing.T) {
	firstRegistered := map[string]string{
		"3D-FFT": "8x8x128 (chunk=1pg)", "Barnes": "512", "Ilink": "8x8192",
		"Jacobi": "128x512 (row=1pg)", "MGS": "512x32 (vec=1pg)",
		"Shallow": "512x16 (col=1pg)", "Storm": "small", "TSP": "12-city", "Water": "96",
	}
	appNames := apps.Apps()
	if len(appNames) != 9 {
		t.Fatalf("apps = %v, want the paper's 8 plus Storm", appNames)
	}
	sawStorm := false
	for _, app := range appNames {
		for _, size := range []string{"small", "medium", "large"} {
			if _, ok := apps.Lookup(app, size); !ok {
				t.Errorf("%s has no %q dataset", app, size)
			}
		}
		e, ok := apps.Lookup(app, "")
		if !ok {
			t.Fatalf("%s has no default dataset", app)
		}
		if e.Dataset != firstRegistered[app] {
			t.Errorf("%s default dataset = %q, want its first-registered %q",
				app, e.Dataset, firstRegistered[app])
		}
		if app == "Storm" {
			sawStorm = true
			if e.Paper != "" {
				t.Errorf("Storm claims paper dataset %q; it is synthetic", e.Paper)
			}
			continue
		}
		if e.Paper == "" {
			t.Errorf("%s default dataset %q is not a paper dataset", app, e.Dataset)
		}
	}
	if !sawStorm {
		t.Error("Storm missing from registry")
	}
}

// Round-trip: every Names() entry resolves back through Lookup to the
// same entry, and its factory builds a workload.
func TestRegistryRoundTrip(t *testing.T) {
	names := apps.Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	for _, name := range names {
		app, dataset, ok := strings.Cut(name, "/")
		if !ok {
			t.Fatalf("malformed name %q", name)
		}
		e, ok := apps.Lookup(app, dataset)
		if !ok {
			t.Fatalf("Lookup(%q, %q) failed for listed name", app, dataset)
		}
		if e.App != app || e.Dataset != dataset {
			t.Fatalf("Lookup(%q, %q) returned %s/%s", app, dataset, e.App, e.Dataset)
		}
		w := e.Make(8)
		if w == nil {
			t.Fatalf("%s: nil workload", name)
		}
		if w.SegmentBytes() <= 0 {
			t.Errorf("%s: segment bytes = %d", name, w.SegmentBytes())
		}
	}
}

// Register refuses a configuration whose processor count it cannot set,
// before it touches the registry.
func TestRegisterNeedsProcs(t *testing.T) {
	type noProcs struct{ N int }
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted a configuration without Procs")
		}
		if _, ok := apps.Lookup("NoProcs", ""); ok {
			t.Fatal("a refused app was registered")
		}
	}()
	apps.Register("NoProcs", false, func(noProcs) apps.Workload { return nil },
		[]apps.Dataset[noProcs]{{Name: "small"}})
}

// Lookup semantics: case-insensitive app, default dataset, substring
// dataset match.
func TestRegistryLookupMatching(t *testing.T) {
	if _, ok := apps.Lookup("jAcObI", ""); !ok {
		t.Fatal("app lookup must be case-insensitive")
	}
	e, ok := apps.Lookup("jacobi", "1024")
	if !ok || !strings.Contains(e.Dataset, "1024") {
		t.Fatalf("substring dataset match failed: %+v ok=%v", e, ok)
	}
	if _, ok := apps.Lookup("nonesuch", ""); ok {
		t.Fatal("unknown app must not resolve")
	}
	if _, ok := apps.Lookup("jacobi", "nonesuch"); ok {
		t.Fatal("unknown dataset must not resolve")
	}
}

// Every app's small dataset runs and checks under the default engine
// configuration — the registry's factories produce working workloads,
// not just names.
func TestRegistrySmallDatasetsRunAndCheck(t *testing.T) {
	for _, app := range apps.Apps() {
		for _, protocol := range tmk.ProtocolNames() {
			app, protocol := app, protocol
			t.Run(app+"/"+protocol, func(t *testing.T) {
				t.Parallel()
				e, ok := apps.Lookup(app, "small")
				if !ok {
					t.Fatalf("%s: no small dataset", app)
				}
				const procs = 4
				res, err := apps.Run(e.Make(procs),
					tmk.Config{Procs: procs, Protocol: protocol, Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Time <= 0 || res.Stats == nil {
					t.Fatalf("incomplete result: %+v", res)
				}
			})
		}
	}
}

// Multi-trial execution through the registry: one reused system, every
// trial verified, deterministic aggregate for barrier programs.
func TestRegistryRunTrials(t *testing.T) {
	e, ok := apps.Lookup("Jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small not registered")
	}
	ts, err := apps.RunTrials(e.Make(4), tmk.Config{Procs: 4, Collect: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Trials) != 3 {
		t.Fatalf("trials = %d", len(ts.Trials))
	}
	for i, r := range ts.Trials {
		if r.Time != ts.Trials[0].Time {
			t.Fatalf("trial %d time %v != trial 0 %v (Jacobi is barrier-deterministic)",
				i, r.Time, ts.Trials[0].Time)
		}
	}
	if ts.MinTime != ts.MaxTime {
		t.Fatalf("min %v != max %v", ts.MinTime, ts.MaxTime)
	}
}

// oracleSorted is the registry's old read path (sortedEntries): copy
// the entries and stable-sort them by lower-cased app name on every
// call.
func oracleSorted(regs []apps.Entry) []apps.Entry {
	out := make([]apps.Entry, len(regs))
	copy(out, regs)
	sort.SliceStable(out, func(i, j int) bool {
		return strings.ToLower(out[i].App) < strings.ToLower(out[j].App)
	})
	return out
}

// oracleLookup is the old Lookup over oracleSorted's order.
func oracleLookup(sorted []apps.Entry, app, dataset string) (apps.Entry, bool) {
	var fallback *apps.Entry
	for _, e := range sorted {
		if !strings.EqualFold(e.App, app) {
			continue
		}
		if dataset == "" || strings.EqualFold(e.Dataset, dataset) {
			return e, true
		}
		if fallback == nil && strings.Contains(strings.ToLower(e.Dataset), strings.ToLower(dataset)) {
			e := e
			fallback = &e
		}
	}
	if fallback != nil {
		return *fallback, true
	}
	return apps.Entry{}, false
}

// oracleReplaySafe is the old ReplaySafe over oracleSorted's order.
func oracleReplaySafe(sorted []apps.Entry, app string) bool {
	found := false
	for _, e := range sorted {
		if strings.EqualFold(e.App, app) {
			if e.ScheduleSensitive {
				return false
			}
			found = true
		}
	}
	return found
}

// entryKey names an entry by everything but its factory.
func entryKey(e apps.Entry) string {
	return fmt.Sprintf("%s/%s paper=%q sensitive=%v", e.App, e.Dataset, e.Paper, e.ScheduleSensitive)
}

func swapCase(s string) string {
	return strings.Map(func(r rune) rune {
		if unicode.IsUpper(r) {
			return unicode.ToLower(r)
		}
		return unicode.ToUpper(r)
	}, s)
}

// The in-place Lookup and ReplaySafe agree with the old copy-and-sort
// ones for every registered app × dataset under every spelling a client
// may send — exact, case-swapped, a substring, empty — and for unknown
// apps and datasets.
func TestRegistryMatchesSortOracle(t *testing.T) {
	sorted := oracleSorted(apps.Entries())
	queries := [][2]string{
		{"nonesuch", ""}, {"nonesuch", "small"}, {"", ""}, {"jacobi", "nonesuch"},
		{"jacobi", "1024"}, {"JACOBI", "ROW=2PG"}, {"jacobi", "x"}, {"mgs", "16"},
		{"Water", "9"}, {"3d-fft", "Chunk"}, {"tsp", "city"}, {"storm", "l"},
		{"jacobi", "K"}, {"jacobi", "smàll"},
	}
	for _, e := range sorted {
		for _, app := range []string{e.App, swapCase(e.App)} {
			for _, ds := range []string{e.Dataset, swapCase(e.Dataset), e.Dataset[1:], ""} {
				queries = append(queries, [2]string{app, ds})
			}
		}
	}
	for _, q := range queries {
		got, gotOK := apps.Lookup(q[0], q[1])
		want, wantOK := oracleLookup(sorted, q[0], q[1])
		if gotOK != wantOK || entryKey(got) != entryKey(want) {
			t.Errorf("Lookup(%q, %q) = %s, %v; oracle %s, %v",
				q[0], q[1], entryKey(got), gotOK, entryKey(want), wantOK)
		}
		if got, want := apps.ReplaySafe(q[0]), oracleReplaySafe(sorted, q[0]); got != want {
			t.Errorf("ReplaySafe(%q) = %v; oracle %v", q[0], got, want)
		}
	}
	var oracleApps []string
	seen := map[string]bool{}
	for _, e := range sorted {
		if k := strings.ToLower(e.App); !seen[k] {
			seen[k] = true
			oracleApps = append(oracleApps, e.App)
		}
	}
	if got := apps.Apps(); !slices.Equal(got, oracleApps) {
		t.Errorf("Apps() = %v; oracle %v", got, oracleApps)
	}
}

// Registering in any order and inserting each entry at its place gives
// the order a stable sort of that registration order gives: apps by
// lower-cased name, each app's entries as they were registered.
func TestInsertEntryMatchesStableSort(t *testing.T) {
	regs := apps.Entries()
	// Names that differ only in case must stay in registration order.
	regs = append(regs,
		apps.Entry{App: "jacobi", Dataset: "lower"},
		apps.Entry{App: "JACOBI", Dataset: "upper"},
		apps.Entry{App: "Zeta", Dataset: "z"})
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 100; round++ {
		rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
		var got []apps.Entry
		for _, e := range regs {
			got = apps.InsertEntry(got, e)
		}
		want := oracleSorted(regs)
		for i := range want {
			if entryKey(got[i]) != entryKey(want[i]) {
				t.Fatalf("round %d: entry %d is %s, stable sort gives %s",
					round, i, entryKey(got[i]), entryKey(want[i]))
			}
		}
	}
}

// TestAllocBudgetLookup pins a registry read at zero allocations: Lookup
// and ReplaySafe walk the ordered registry in place under the read lock.
// The datasets asked for are lower case, as every registered one is, so
// the substring fallback's strings.ToLower returns its input.
func TestAllocBudgetLookup(t *testing.T) {
	cases := []struct {
		name string
		op   func()
	}{
		{"Lookup default", func() { _, _ = apps.Lookup("water", "") }},
		{"Lookup exact", func() { _, _ = apps.Lookup("Water", "small") }},
		{"Lookup substring", func() { _, _ = apps.Lookup("jacobi", "1024") }},
		{"Lookup unknown", func() { _, _ = apps.Lookup("nonesuch", "small") }},
		{"ReplaySafe", func() { _ = apps.ReplaySafe("Jacobi") }},
		{"ReplaySafe unknown", func() { _ = apps.ReplaySafe("nonesuch") }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}
