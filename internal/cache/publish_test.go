// External test package: telemetry imports runlog → core → webpage, and
// webpage imports cache, so an in-package test pulling in telemetry would be
// an import cycle.
package cache_test

import (
	"strings"
	"testing"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/telemetry"
	"mobileqoe/internal/trace"
)

func TestPublishRendersCleanPrometheus(t *testing.T) {
	c := cache.New[int, int](cache.Config{Name: "test.publish", MaxEntries: 2})
	c.GetOrLoad(1, func() (int, int64, error) { return 1, 3, nil })
	c.GetOrLoad(1, func() (int, int64, error) { return 1, 3, nil })

	reg := trace.NewMetrics()
	cache.Publish(reg)
	var b strings.Builder
	if err := telemetry.Render(&b, reg); err != nil {
		t.Fatalf("render: %v", err)
	}
	text := b.String()
	if err := telemetry.Lint(text); err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"cache_test_publish_hits 1",
		"cache_test_publish_misses 1",
		"cache_test_publish_bytes 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered metrics missing %q:\n%s", want, text)
		}
	}
}
