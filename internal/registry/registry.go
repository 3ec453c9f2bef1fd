// Package registry holds the naming rule every experiment axis shares.
// An axis (protocol, network, placement, barrier, scale) maps canonical
// names to the values they select; a name is canonical once trimmed and
// lowercased, an empty name selects the axis default, and an unknown
// name is an *Error listing the known ones.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is one axis: its names, the values they select, the field
// that spells it in a spec ("protocol"), its kind in error messages
// ("network model") and its default name.
type Registry[T any] struct {
	field, kind, def string
	entries          map[string]T
}

// New builds an axis over entries, whose keys must be canonical and
// include def.
func New[T any](field, kind, def string, entries map[string]T) *Registry[T] {
	return &Registry[T]{field: field, kind: kind, def: def, entries: entries}
}

// Canonical returns the canonical form of name, or an *Error naming the
// axis when no entry answers to it. A canonical name is returned as is,
// without allocating.
func (r *Registry[T]) Canonical(name string) (string, error) {
	c := strings.ToLower(strings.TrimSpace(name))
	if c == "" {
		c = r.def
	}
	if _, ok := r.entries[c]; !ok {
		return "", &Error{Field: r.field, Msg: fmt.Sprintf("unknown %s %q (known: %s)",
			r.kind, name, strings.Join(r.Names(), ", "))}
	}
	return c, nil
}

// Get returns the value a canonical name selects.
func (r *Registry[T]) Get(name string) T { return r.entries[name] }

// Names returns the canonical names, sorted.
func (r *Registry[T]) Names() []string {
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Error is a configuration value an axis or a bound rejected. Field
// names the value as a spec spells it ("barrier_radix").
type Error struct {
	Field string
	Msg   string
}

func (e *Error) Error() string { return e.Msg }
