package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// OpenMetrics 1.0 text exposition — the format exemplar-aware scrapers
// negotiate via `Accept: application/openmetrics-text`. It differs from
// the 0.0.4 exposition in three ways that matter here: the counter
// family is declared under its bare name while the sample keeps the
// `_total` suffix, histogram bucket lines may carry exemplars
// (` # {trace_id="…"} value`), and the exposition must end with `# EOF`.
// Everything else — sorted order, sanitized names, the derive-count-
// from-one-bucket-pass consistency clamp — is shared with
// WritePrometheus through one renderer (writeText).

// Content-Type values for the two expositions the admin endpoints serve.
const (
	ContentTypePrometheus  = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// AcceptsOpenMetrics reports whether an Accept header value asks for the
// OpenMetrics exposition. A plain substring scan is enough: proxies that
// send weighted lists ("application/openmetrics-text;q=0.9,text/plain")
// still want OpenMetrics understood, and a client that cannot parse it
// would not name it at all.
func AcceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

// WriteOpenMetrics renders every metric in OpenMetrics 1.0 text format,
// attaching each histogram bucket's retained exemplar (see
// Histogram.ObserveExemplar) and terminating with `# EOF`. Exemplar
// timestamps are deliberately omitted — they are optional in the format
// and their absence keeps the exposition deterministic for golden tests.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeText(w, true)
}

func writeExemplar(w *bufio.Writer, ex *Exemplar) {
	if ex == nil || ex.Trace == 0 {
		return
	}
	w.WriteString(` # {trace_id="` + ex.Trace.String() + `"} ` +
		strconv.FormatFloat(ex.Value, 'g', -1, 64))
}
