package obs

import "sync/atomic"

// CounterCache resolves a fixed list of counter series once per
// registry, so a per-frame path pays for two pointer loads instead of a
// label-set lookup per increment. Each series is resolved on its first
// use, leaving the registry with exactly the series, in the same order,
// that a lookup per increment would have created. The cache is keyed by
// the registry it resolved on: passing another registry starts afresh,
// so an owner whose Obs field is re-pointed counts on the new registry
// from its next increment. Safe for concurrent use. The zero value is
// ready; a CounterCache must not be copied after first use.
type CounterCache struct {
	set atomic.Pointer[counterSet]
}

// counterSet is the cache's resolved counters for one registry.
type counterSet struct {
	reg *Registry
	c   []atomic.Pointer[Counter]
}

// Counter returns series[i] on reg, where each series is a metric name
// followed by its label name/value pairs. Every call on one cache must
// pass the same series list.
func (cc *CounterCache) Counter(reg *Registry, series [][]string, i int) *Counter {
	set := cc.set.Load()
	if set == nil || set.reg != reg {
		set = &counterSet{reg: reg, c: make([]atomic.Pointer[Counter], len(series))}
		cc.set.Store(set)
	}
	c := set.c[i].Load()
	if c == nil {
		c = reg.Counter(series[i][0], series[i][1:]...)
		set.c[i].Store(c)
	}
	return c
}
