package obs

import (
	"strings"
	"sync"
	"testing"
)

var cacheSeries = [][]string{
	{"c_total"},
	{"d_total", "path", "a"},
	{"d_total", "path", "b"},
}

// TestCounterCacheResolvesLazily checks that only incremented series
// exist on the registry, and that a second registry gets its own.
func TestCounterCacheResolvesLazily(t *testing.T) {
	var cc CounterCache
	r1, r2 := NewRegistry(), NewRegistry()
	cc.Counter(r1, cacheSeries, 2).Inc()
	cc.Counter(r1, cacheSeries, 2).Inc()
	cc.Counter(r2, cacheSeries, 0).Inc()
	cc.Counter(r1, cacheSeries, 0).Add(3)
	for _, tc := range []struct {
		reg  *Registry
		want string
	}{
		{r1, "# TYPE c_total counter\nc_total 3\n# TYPE d_total counter\nd_total{path=\"b\"} 2\n"},
		{r2, "# TYPE c_total counter\nc_total 1\n"},
	} {
		var b strings.Builder
		if err := tc.reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != tc.want {
			t.Errorf("registry text:\n%s\nwant:\n%s", b.String(), tc.want)
		}
	}
	if cc.Counter(r1, cacheSeries, 1) != r1.Counter("d_total", "path", "a") {
		t.Error("cached counter differs from the registry's series")
	}
}

// TestCounterCacheConcurrent resolves and increments from many
// goroutines while the registry alternates (run it under -race): no
// increment may be lost or land on the wrong registry.
func TestCounterCacheConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 500
	var cc CounterCache
	regs := []*Registry{NewRegistry(), NewRegistry()}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				cc.Counter(regs[(g+i)%2], cacheSeries, i%len(cacheSeries)).Inc()
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, r := range regs {
		for _, s := range cacheSeries {
			total += r.Counter(s[0], s[1:]...).Value()
		}
	}
	if total != goroutines*rounds {
		t.Errorf("%d increments counted, want %d", total, goroutines*rounds)
	}
}
