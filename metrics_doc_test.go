package scibench_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	scibench "repro"
)

// TestREADMEMetricNames keeps README's "Metric names, by layer" list and
// the telemetry registry in step: every metric the harness registers must
// be documented, and every documented name must be registered. The facade
// links every instrumented package, so the process-wide registry holds
// all of them by the time a test runs.
func TestREADMEMetricNames(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	start := strings.Index(text, "Metric names, by layer")
	end := strings.Index(text, "Trace spans are")
	if start < 0 || end < start {
		t.Fatal(`README has no "Metric names, by layer" list ending before "Trace spans are"`)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z_]+\\.[a-z_.]+)`").FindAllStringSubmatch(text[start:end], -1) {
		documented[m[1]] = true
	}

	snap := scibench.Telemetry().Snapshot()
	registered := map[string]bool{}
	for name := range snap.Counters {
		registered[name] = true
	}
	for name := range snap.Gauges {
		registered[name] = true
	}
	for name := range snap.Histograms {
		registered[name] = true
	}

	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("metric %q is registered but missing from README's metric list", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("README lists metric %q, but nothing registers it", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
