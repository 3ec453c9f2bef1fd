package expsvc

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAllocBudgetResolve pins spec resolution at one allocation, the
// returned *Resolved: the registry lookup behind it walks the ordered
// registry in place.
func TestAllocBudgetResolve(t *testing.T) {
	spec := Spec{App: "jacobi", Dataset: "small", Protocol: "home", Procs: 4}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Resolve(spec); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Resolve: %v allocs/op, want at most 1", n)
	}
}

// TestAllocBudgetCacheHit pins the server's own allocations for a
// cache-hit POST /v1/run through ServeHTTP, with logging off, at 26 (24
// measured on go 1.24.0). The same httptest request and recorder served by a no-op handler are
// measured and subtracted, so a change in httptest's own allocations
// does not move the figure. A hit does no work that grows with the
// registry and builds no log attributes for lines that are not written.
func TestAllocBudgetCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const spec = `{"app":"jacobi","dataset":"small","procs":4}`
	post := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(spec)))
		return rec
	}
	base := testing.AllocsPerRun(100, func() {
		post(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	})

	runner := &countingRunner{}
	s := New(Config{Runner: runner.run, Logger: slog.New(slog.DiscardHandler)})
	hit := func() {
		rec := post(s)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/run: %d: %s", rec.Code, rec.Body)
		}
		if got := rec.Header().Get(HeaderCache); got != "hit" {
			t.Fatalf("disposition %q, want hit", got)
		}
	}
	if rec := post(s); rec.Header().Get(HeaderCache) != "miss" {
		t.Fatalf("first request: %d %q, want a miss", rec.Code, rec.Header().Get(HeaderCache))
	}
	n := testing.AllocsPerRun(100, hit) - base
	t.Logf("cache hit: %v allocs/op beyond httptest's %v", n, base)
	if n > 26 {
		t.Errorf("cache-hit POST /v1/run: %v allocs/op beyond httptest's %v, want at most 26", n, base)
	}
}
