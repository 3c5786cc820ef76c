package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// rankOf is the nearest-rank index of quantile q among n sorted samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mixShape reports, for p50 and p99, which request class holds the
// percentile and how many samples separate it from the nearest class
// boundary. Classes are laid out in order of their median latency, each
// over the share of samples it has; a percentile whose rank sits a few
// samples from a boundary would move to another class's latency when the
// shares shift by a fraction of a percent, so its value is not to be
// trusted.
func mixShape(lat []time.Duration, class []string, names []string) string {
	n := len(lat)
	byClass := map[string][]time.Duration{}
	for i, c := range class {
		byClass[c] = append(byClass[c], lat[i])
	}
	type span struct {
		name   string
		median time.Duration
		lo, hi int // rank interval [lo, hi)
	}
	var spans []span
	for _, name := range names {
		s := append([]time.Duration(nil), byClass[name]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		spans = append(spans, span{name: name, median: percentile(s, 0.5), hi: len(s)})
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].median < spans[j].median })
	at := 0
	for i := range spans {
		spans[i].lo, spans[i].hi = at, at+spans[i].hi
		at = spans[i].hi
	}
	// The class of the sample actually sitting at each rank.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })

	var b strings.Builder
	b.WriteString("mix:")
	for _, s := range spans {
		fmt.Fprintf(&b, " %s %.1f%% (median %.3fms)", s.name, 100*float64(s.hi-s.lo)/float64(n), float64(s.median)/1e6)
	}
	b.WriteByte('\n')
	for _, q := range []float64{0.50, 0.99} {
		r := rankOf(n, q)
		for _, s := range spans {
			if r < s.lo || r >= s.hi {
				continue
			}
			dist := math.MaxInt
			if s.lo > 0 {
				dist = r - s.lo
			}
			if s.hi < n && s.hi-1-r < dist {
				dist = s.hi - 1 - r
			}
			fmt.Fprintf(&b, "p%.0f: class %s, %d samples (%.1f%%) from the nearest class boundary; the sample there is %s\n",
				q*100, s.name, dist, 100*float64(dist)/float64(n), class[idx[r]])
		}
	}
	return b.String()
}
