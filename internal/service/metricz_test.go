package service

import (
	"strings"
	"testing"

	"refidem/internal/deps"
)

// metriczNames extracts the rendered counter names in order.
func metriczNames(doc string) []string {
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		names = append(names, name)
	}
	return names
}

// TestRenderMetriczLineOrder pins the exact line order of the /metricz
// document: scrapers parse it positionally and goldens diff it, so a
// reordering is a breaking change this test makes deliberate.
func TestRenderMetriczLineOrder(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	want := []string{
		"requests_label", "requests_simulate", "requests_batch_calls",
		"requests_timeline",
		"requests_bad", "requests_timeout",
		"rejected_overloaded", "coalesced_requests", "tasks_computed",
		"delta_requests", "delta_unknown_base",
		"delta_regions_reused", "delta_regions_relabeled",
		"delta_base_entries", "delta_fragment_entries",
		"trace_compiled", "trace_bailouts", "guard_elided",
		"sim_rows_computed", "sim_rows_reused",
		"sim_source_hits", "sim_answered_kept",
	}
	for _, name := range deps.MemberNames() {
		want = append(want,
			"deps_member_"+name+"_queries",
			"deps_member_"+name+"_hits",
			"deps_member_"+name+"_short_circuits")
	}
	want = append(want,
		"response_cache_hits", "response_cache_entries",
		"store_enabled", "store_degraded",
		"store_warm_hits", "store_warm_entries", "store_hits",
		"store_writes", "store_write_errors", "store_dropped_writes",
		"store_corrupt_reads", "store_read_errors",
		"store_degraded_events", "store_recoveries", "store_probe_failures",
		"store_quarantined",
		"cache_hits", "cache_misses", "cache_evictions",
		"cache_entries", "cache_capacity",
		"latency_count", "latency_mean_ns",
		"latency_p50_us", "latency_p95_us", "latency_p99_us",
	)
	got := metriczNames(s.RenderMetricz())
	// A fresh server has an empty histogram: no latency_le_us lines at
	// all, so the fixed prefix is the whole document.
	if len(got) != len(want) {
		t.Fatalf("rendered %d lines, want %d:\n%v\nvs\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRenderMetriczHistogramElision pins the cumulative-bucket elision on
// crafted histogram states.
func TestRenderMetriczHistogramElision(t *testing.T) {
	leLines := func(s *Server) []string {
		var out []string
		for _, line := range strings.Split(s.RenderMetricz(), "\n") {
			if strings.HasPrefix(line, "latency_le_us{") {
				out = append(out, line)
			}
		}
		return out
	}

	t.Run("empty", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		if lines := leLines(s); len(lines) != 0 {
			t.Fatalf("empty histogram rendered buckets: %v", lines)
		}
		doc := s.RenderMetricz()
		for _, want := range []string{"latency_count 0\n", "latency_mean_ns 0\n",
			"latency_p50_us 0\n", "latency_p95_us 0\n", "latency_p99_us 0\n"} {
			if !strings.Contains(doc, want) {
				t.Errorf("empty histogram lacks %q", strings.TrimSpace(want))
			}
		}
	})

	t.Run("single-bucket", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		// Three observations in bucket 5 (<= 32 µs): leading buckets elide
		// and the render stops at the first bucket reaching the total.
		s.metrics.latency[5].Add(3)
		lines := leLines(s)
		if len(lines) != 1 || lines[0] != "latency_le_us{32} 3" {
			t.Fatalf("single-bucket render = %v, want exactly latency_le_us{32} 3", lines)
		}
	})

	t.Run("overflow-bucket", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		s.metrics.latency[latencyBuckets].Add(2)
		lines := leLines(s)
		if len(lines) != 1 || lines[0] != "latency_le_us{+inf} 2" {
			t.Fatalf("overflow render = %v, want exactly latency_le_us{+inf} 2", lines)
		}
	})

	t.Run("two-buckets", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		s.metrics.latency[3].Add(1)
		s.metrics.latency[6].Add(1)
		want := []string{
			"latency_le_us{8} 1",
			"latency_le_us{16} 1",
			"latency_le_us{32} 1",
			"latency_le_us{64} 2",
		}
		got := leLines(s)
		if len(got) != len(want) {
			t.Fatalf("render = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
			}
		}
	})
}

// TestLatencyQuantiles pins the histogram quantile estimator.
func TestLatencyQuantiles(t *testing.T) {
	var buckets [latencyBuckets + 1]int64
	if got := latencyQuantile(&buckets, 0, 50); got != 0 {
		t.Fatalf("empty p50 = %d, want 0", got)
	}
	// 50 fast (<= 1 µs), 45 medium (<= 8 µs), 5 slow (<= 1024 µs).
	buckets[0], buckets[3], buckets[10] = 50, 45, 5
	const count = 100
	if got := latencyQuantile(&buckets, count, 50); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := latencyQuantile(&buckets, count, 95); got != 8 {
		t.Errorf("p95 = %d, want 8", got)
	}
	if got := latencyQuantile(&buckets, count, 99); got != 1024 {
		t.Errorf("p99 = %d, want 1024", got)
	}
	// Overflow-only: quantiles report the overflow bound.
	var of [latencyBuckets + 1]int64
	of[latencyBuckets] = 4
	if got := latencyQuantile(&of, 4, 50); got != int64(1)<<latencyBuckets {
		t.Errorf("overflow p50 = %d, want %d", got, int64(1)<<latencyBuckets)
	}
	// Rendered lines agree with direct calls.
	s := New(testConfig())
	defer s.Close()
	for i, n := range map[int]int64{0: 50, 3: 45, 10: 5} {
		s.metrics.latency[i].Add(n)
	}
	doc := s.RenderMetricz()
	for _, want := range []string{"latency_p50_us 1\n", "latency_p95_us 8\n", "latency_p99_us 1024\n"} {
		if !strings.Contains(doc, want) {
			t.Errorf("metricz lacks %q", strings.TrimSpace(want))
		}
	}
}
