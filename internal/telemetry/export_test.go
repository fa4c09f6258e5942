package telemetry

import "repro/internal/stats"

// ResetHistogram clears every observation h has seen, so a test sharing
// the process-wide registry with earlier tests asserts on its own
// activity only.
func ResetHistogram(h *Histogram) {
	h.mu.Lock()
	h.w, h.q = stats.Welford{}, stats.LogHistogram{}
	h.mu.Unlock()
}
