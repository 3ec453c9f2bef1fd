package apps

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Entry is one registered application × dataset workload factory. The
// app subpackages self-register their paper datasets plus a
// small/medium/large sweep from init, so any workload is constructible
// by name — the foundation the CLI tools and the harness build on.
type Entry struct {
	// App is the application's display name ("Jacobi", "3D-FFT", ...).
	App string
	// Dataset names the input size. Paper datasets use the descriptive
	// harness nomenclature ("128x512 (row=1pg)"); every app also
	// registers "small", "medium", and "large".
	Dataset string
	// Paper is the paper dataset this one stands in for; empty for
	// sweep sizes that have no paper counterpart.
	Paper string
	// ScheduleSensitive marks applications whose message stream depends
	// on timing — in this engine, programs that contend for locks: locks
	// are granted in virtual-time order, so the hand-off order, lock
	// caching and (for TSP) branch-and-bound pruning follow the
	// simulated times of the requests, and those depend on the network
	// model. The same cell on the same network runs the same way on any
	// host, but a trace captured on one network describes that
	// network's run, not the app, so replay-derivation of sweep cells
	// for other networks is unsound for them and the harness falls back
	// to real execution. The barrier-only applications are invariant:
	// barrier streams permute only in release order, which never
	// changes totals.
	ScheduleSensitive bool
	// Make builds the workload for the given processor count.
	Make func(procs int) Workload
}

var (
	regMu sync.RWMutex
	// regEntries is kept ordered by app name (case-insensitive), each
	// app's entries in registration order, so readers walk it in place.
	regEntries []Entry
)

// Dataset is one row of an application's registration: the dataset's
// registry name, the paper input it stands in for (empty for a sweep
// size), and the configuration its workloads are built from.
type Dataset[C any] struct {
	Name, Paper string
	Config      C
}

// Register adds an application's datasets to the registry, in order, so
// the first is the app's default. Each entry's Make copies the row's
// configuration, sets its Procs field and calls newApp, so C must be a
// struct with an int field Procs. It is called from the app
// subpackages' init functions; a C without Procs, an incomplete row or
// a duplicate app/dataset pair panics (a programming error caught at
// process start, never on a user path).
func Register[C any, W Workload](app string, scheduleSensitive bool, newApp func(C) W, datasets []Dataset[C]) {
	procs, ok := reflect.TypeFor[C]().FieldByName("Procs")
	if !ok || procs.Type.Kind() != reflect.Int {
		panic(fmt.Sprintf("apps: %s's configuration has no int Procs field", app))
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, d := range datasets {
		if app == "" || d.Name == "" {
			panic(fmt.Sprintf("apps: incomplete registration %q/%q", app, d.Name))
		}
		for _, x := range regEntries {
			if strings.EqualFold(x.App, app) && strings.EqualFold(x.Dataset, d.Name) {
				panic(fmt.Sprintf("apps: duplicate registration %s/%s", app, d.Name))
			}
		}
		regEntries = insertEntry(regEntries, Entry{
			App: app, Dataset: d.Name, Paper: d.Paper, ScheduleSensitive: scheduleSensitive,
			Make: func(n int) Workload {
				c := d.Config
				reflect.ValueOf(&c).Elem().FieldByIndex(procs.Index).SetInt(int64(n))
				return newApp(c)
			},
		})
	}
}

// insertEntry inserts e into es, which is ordered by app name
// (case-insensitive), after every entry whose name sorts equal to its
// own: the order a stable sort of the registration order would give, so
// the first entry of an app is its default (primary paper) dataset.
func insertEntry(es []Entry, e Entry) []Entry {
	key := strings.ToLower(e.App)
	i := sort.Search(len(es), func(i int) bool { return key < strings.ToLower(es[i].App) })
	return slices.Insert(es, i, e)
}

// Entries returns every registered workload, ordered by app name with
// each app's entries in registration order.
func Entries() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Clone(regEntries)
}

// Names returns the "app/dataset" name of every registered workload,
// in Entries order.
func Names() []string {
	es := Entries()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.App + "/" + e.Dataset
	}
	return out
}

// Apps returns the distinct registered application names, sorted
// case-insensitively.
func Apps() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for _, e := range regEntries {
		// Names that differ only in case sort next to each other.
		if n := len(out); n == 0 || !strings.EqualFold(out[n-1], e.App) {
			out = append(out, e.App)
		}
	}
	return out
}

// ReplaySafe reports whether the application's message stream is
// network- and timing-invariant, making replay-derived sweep cells
// sound for it (see Entry.ScheduleSensitive). Unknown apps report
// false — derivation must never be assumed for an unclassified
// workload.
func ReplaySafe(app string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	found := false
	for _, e := range regEntries {
		if strings.EqualFold(e.App, app) {
			if e.ScheduleSensitive {
				return false
			}
			found = true
		}
	}
	return found
}

// Lookup resolves an application (case-insensitive) and dataset to a
// registered entry. An empty dataset selects the app's default (its
// first-registered, primary paper dataset). A non-empty dataset
// matches exactly (case-insensitive) first, then as a substring —
// "1024" finds Jacobi's "64x1024 (row=2pg)".
func Lookup(app, dataset string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	fallback := -1
	for i, e := range regEntries {
		if !strings.EqualFold(e.App, app) {
			continue
		}
		if dataset == "" || strings.EqualFold(e.Dataset, dataset) {
			return e, true
		}
		if fallback < 0 && strings.Contains(strings.ToLower(e.Dataset), strings.ToLower(dataset)) {
			fallback = i
		}
	}
	if fallback >= 0 {
		return regEntries[fallback], true
	}
	return Entry{}, false
}
