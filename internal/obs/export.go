package obs

import (
	"bufio"
	"io"
	"strconv"
)

// Prometheus/OpenMetrics text exposition for a Registry — the standard
// scrape format, rendered stdlib-only. Counters gain the conventional
// `_total` suffix, histograms are emitted with cumulative buckets,
// `_sum` and `_count`, and every metric name is sanitized into the legal
// charset ([a-zA-Z_:][a-zA-Z0-9_:]*), so registry names like
// "serve.latency_seconds.workload_forecast" or per-workload gauges like
// "fleet.rolling_mape_pct.gl-30m" export as valid series.
//
// Consistency: the renderer reads live atomics without stopping writers
// (the same weak-consistency contract as Snapshot). To guarantee a valid
// exposition anyway, a histogram's `_count` and `le="+Inf"` bucket are
// both derived from one pass over the bucket counters — they are equal
// and the cumulative sequence is monotone by construction — and any
// value that could only arise mid-update (a negative count, a non-zero
// sum on an empty histogram) is clamped.

// WritePrometheus renders every metric in the registry in Prometheus
// text exposition format (version 0.0.4), in sorted name order. When two
// registry names sanitize to the same exposition name, the first (in
// sorted original order) wins and later ones are dropped — duplicate
// series would make the whole exposition unparseable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeText(w, false)
}

// writeText is the one text renderer behind WritePrometheus and
// WriteOpenMetrics. openMetrics switches the three format differences:
// the counter family is declared under its bare name (the sample keeps
// `_total`), histogram buckets carry exemplars, and the exposition ends
// with `# EOF`. Duplicate detection keys on the declared family name.
func (r *Registry) writeText(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	seen := map[string]bool{}
	emit := func(name string) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		return true
	}
	for _, n := range sortedKeys(counters) {
		family := SanitizeMetricName(n)
		sample := family + "_total"
		if !openMetrics {
			family = sample
		}
		if !emit(family) {
			continue
		}
		v := counters[n].Value()
		if v < 0 {
			v = 0
		}
		bw.WriteString("# TYPE " + family + " counter\n")
		bw.WriteString(sample + " " + strconv.FormatInt(v, 10) + "\n")
	}
	for _, n := range sortedKeys(gauges) {
		name := SanitizeMetricName(n)
		if !emit(name) {
			continue
		}
		bw.WriteString("# TYPE " + name + " gauge\n")
		bw.WriteString(name + " " + strconv.FormatInt(gauges[n].Value(), 10) + "\n")
	}
	for _, n := range sortedKeys(hists) {
		name := SanitizeMetricName(n)
		if !emit(name) {
			continue
		}
		writeHistogram(bw, name, hists[n], openMetrics)
	}
	if openMetrics {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// writeHistogram emits one histogram: cumulative buckets at every bound
// where the count changes (plus the mandatory le="+Inf"), then `_sum` and
// `_count`. Count is derived from the bucket pass, not the separate count
// atomic, so `_count` always equals the +Inf bucket even when the two are
// mid-update. With exemplars set, each emitted bucket line carries its
// retained exemplar (OpenMetrics only).
func writeHistogram(w *bufio.Writer, name string, h *Histogram, exemplars bool) {
	bucket := func(le string, cum int64, i int) {
		w.WriteString(name + `_bucket{le="` + le + `"} ` + strconv.FormatInt(cum, 10))
		if exemplars {
			writeExemplar(w, h.exemplar(i))
		}
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE " + name + " histogram\n")
	var cum int64
	for i := 0; i < numBuckets+2; i++ {
		n := h.counts[i].Load()
		if n <= 0 { // negative: impossible by API, clamp anyway; zero: elide
			continue
		}
		cum += n
		if i == numBuckets+1 {
			break // overflow lands in +Inf only
		}
		var bound float64
		if i == 0 {
			bound = bucketBound(-1) // underflow upper edge, 1e-9
		} else {
			bound = bucketBound(i - 1)
		}
		bucket(strconv.FormatFloat(bound, 'g', -1, 64), cum, i)
	}
	bucket("+Inf", cum, numBuckets+1)
	sum := h.Sum()
	if cum == 0 || sum != sum { // empty or NaN mid-update: clamp to a parseable 0
		sum = 0
	}
	w.WriteString(name + "_sum " + strconv.FormatFloat(sum, 'g', -1, 64) + "\n")
	w.WriteString(name + "_count " + strconv.FormatInt(cum, 10) + "\n")
}

// SanitizeMetricName maps an arbitrary registry name onto the Prometheus
// metric-name charset: every character outside [a-zA-Z0-9_:] becomes
// '_', a leading digit is prefixed with '_', and the empty string
// becomes "_".
func SanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	b := make([]byte, 0, len(s)+1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b = append(b, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b = append(b, '_')
			}
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}
