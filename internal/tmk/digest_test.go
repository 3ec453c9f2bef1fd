package tmk_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// configFields are the Result fields Digest leaves out on purpose: they
// name the run's configuration, which keys a digest rather than being
// part of it.
var configFields = map[string]bool{"Network": true, "Placement": true}

// fullResult is a Result with every field, slice element and map entry
// set to a distinct value.
func fullResult() *tmk.Result {
	return &tmk.Result{
		Time: 101, ProcTimes: []sim.Duration{102, 103, 104},
		Messages: 105, Bytes: 106, Network: "bus", QueueDelay: 107,
		Stats: &instrument.Stats{
			Messages:    instrument.Breakdown{Useful: 108, Useless: 109},
			UsefulBytes: 110, UselessBytes: 111, PiggybackedBytes: 112, TotalWireBytes: 113,
			Faults: 114, ZeroFetchFaults: 115, Exchanges: 116,
			Signature: map[int]*instrument.SigBucket{
				1: {Writers: 1, Faults: 117, UsefulMsgs: 118, UselessMsgs: 119},
				3: {Writers: 3, Faults: 120, UsefulMsgs: 121, UselessMsgs: 122},
			},
		},
		Faults: 123, Twins: 124, DiffsEncoded: 125, Intervals: 126,
		SwitchedUnits: 127, ProtocolSwitches: 128, UnitSwitches: map[int]int{5: 129, 9: 130}, HomeUnits: 131,
		Placement: "migrate", Rehomes: 132, RehomeBytes: 133, HandoffBytes: 134,
	}
}

// perturbation is one single-value change to a Result.
type perturbation struct {
	path  string
	apply func()
}

// perturbations lists one change to every value reachable from v, in a
// fixed order: each integer incremented, each string extended, each
// pointer cleared, each slice and map grown by one element, each map
// entry moved to a new key. An empty map, a nil pointer or a kind it
// does not know fails the test, so a field added to Result or Stats
// cannot go unperturbed.
func perturbations(t *testing.T, v reflect.Value, path string) []perturbation {
	t.Helper()
	var out []perturbation
	add := func(p string, f func()) { out = append(out, perturbation{p, f}) }
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		add(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.String:
		add(path, func() { v.SetString(v.String() + "x") })
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil in fullResult", path)
		}
		add(path+" cleared", func() { v.SetZero() })
		out = append(out, perturbations(t, v.Elem(), path)...)
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				out = append(out, perturbations(t, v.Field(i), path+"."+f.Name)...)
			}
		}
	case reflect.Slice:
		add(path+" grown", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		for i := range v.Len() {
			out = append(out, perturbations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Map:
		keys := v.MapKeys()
		if len(keys) == 0 {
			t.Fatalf("%s has no entries in fullResult", path)
		}
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		fresh := reflect.ValueOf(keys[len(keys)-1].Int() + 1).Convert(v.Type().Key())
		elem := reflect.Zero(v.Type().Elem())
		if elem.Kind() == reflect.Pointer {
			elem = reflect.New(v.Type().Elem().Elem())
		}
		add(path+" grown", func() { v.SetMapIndex(fresh, elem) })
		for _, k := range keys {
			kp := fmt.Sprintf("%s[%d]", path, k.Int())
			e := v.MapIndex(k)
			add(kp+" rekeyed", func() { v.SetMapIndex(k, reflect.Value{}); v.SetMapIndex(fresh, e) })
			if e.Kind() == reflect.Pointer {
				out = append(out, perturbations(t, e.Elem(), kp)...)
			} else {
				add(kp, func() { v.SetMapIndex(k, reflect.ValueOf(e.Int()+1).Convert(e.Type())) })
			}
		}
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
	return out
}

// TestDigestCoversEveryResult perturbs every exported field of Result
// and Stats, map entries and slice elements included, one at a time:
// each must change the digest, except the configuration names, which
// must not.
func TestDigestCoversEveryResult(t *testing.T) {
	base := fullResult().Digest()
	n := len(perturbations(t, reflect.ValueOf(fullResult()).Elem(), ""))
	for i := range n {
		r := fullResult()
		p := perturbations(t, reflect.ValueOf(r).Elem(), "")[i]
		p.apply()
		field := strings.FieldsFunc(p.path, func(c rune) bool { return c == '.' || c == '[' || c == ' ' })[0]
		switch changed := r.Digest() != base; {
		case configFields[field] && changed:
			t.Errorf("Result%s: a configuration name changed the digest", p.path)
		case !configFields[field] && !changed:
			t.Errorf("Result%s: the digest did not change", p.path)
		}
	}
	if n < 40 {
		t.Fatalf("only %d perturbations; the walk is not reaching the fields", n)
	}
}

// TestDigestIgnoresMapOrder builds the same maps in 100 shuffled
// insertion orders; every build must digest alike.
func TestDigestIgnoresMapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, 64)
	for i := range keys {
		keys[i] = 3*i + 1
	}
	var want string
	for i := range 100 {
		rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		r := fullResult()
		r.UnitSwitches = map[int]int{}
		r.Stats.Signature = map[int]*instrument.SigBucket{}
		for _, k := range keys {
			r.UnitSwitches[k] = 7 * k
			r.Stats.Signature[k] = &instrument.SigBucket{Writers: k, Faults: k + 1, UsefulMsgs: 2 * k, UselessMsgs: 3 * k}
		}
		if d := r.Digest(); i == 0 {
			want = d
		} else if d != want {
			t.Fatalf("insertion order %d: digest %s, first order %s", i, d, want)
		}
	}
}
