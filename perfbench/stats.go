package main

import (
	"math"
	"sort"

	"fractos/internal/sim"
)

// quantile returns the exact nearest-rank q-quantile of sorted: the
// sample at rank ceil(q·n) (1-based). It is the same rank rule as
// load.Hist.Quantile, without the histogram's bucket rounding.
func quantile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank index of the q-quantile among n
// samples, clamped to [1, n].
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many samples rank above the q-quantile: the count a
// tail percentile rests on.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []sim.Time) []sim.Time {
	out := append([]sim.Time(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one virtual-time interval recorded by the benchmark around
// a call it makes into a layer. Spans of one request share req; the
// root span is the request's client-side call, and every other span
// of the same req is its child.
type span struct {
	name       string
	req        uint64
	root       bool
	start, end sim.Time
}

// tracer collects spans in memory; a nil *tracer records nothing, so
// untraced rounds pay one nil check per call site.
type tracer struct {
	spans []span
}

func (tr *tracer) add(name string, req uint64, root bool, start, end sim.Time) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{name: name, req: req, root: root, start: start, end: end})
}

// spanStats is the virtual duration and self time of every span of
// one name.
type spanStats struct {
	dur, self []sim.Time
}

// summarize groups spans by name and computes each span's self time:
// its duration minus the part of its interval that the other spans of
// the same request cover (children only ever hang off a root span).
func (tr *tracer) summarize() map[string]*spanStats {
	children := map[uint64][]span{}
	for _, s := range tr.spans {
		if !s.root {
			children[s.req] = append(children[s.req], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range tr.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		self := d
		if s.root {
			self = d - covered(s.start, s.end, children[s.req])
		}
		st.dur = append(st.dur, d)
		st.self = append(st.self, self)
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// spans' intervals.
func covered(lo, hi sim.Time, spans []span) sim.Time {
	iv := make([][2]sim.Time, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]sim.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end sim.Time
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		if x[0] > end {
			end = x[0]
		}
		total += x[1] - end
		end = x[1]
	}
	return total
}
