package main

import (
	"strings"
	"testing"
)

// passingCampaignReport is a synthetic -campaign report that clears
// every gate.
func passingCampaignReport() campaignBenchReport {
	return campaignBenchReport{SnapshotSpeedup: 1.5}
}

// TestCampaignVerdict judges synthetic reports: the passing one has no
// violations, and each failing case trips exactly the gate it breaks.
func TestCampaignVerdict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(*campaignBenchReport)
		wantIn string // "" means the report must pass
	}{
		{"passing", func(*campaignBenchReport) {}, ""},
		{"speedup at the floor", func(r *campaignBenchReport) { r.SnapshotSpeedup = snapshotSpeedupFloor }, ""},
		{"snapshot speedup 1.19x", func(r *campaignBenchReport) { r.SnapshotSpeedup = 1.19 }, "snapshot speedup"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := passingCampaignReport()
			tc.edit(&r)
			v := campaignVerdict(&r)
			if tc.wantIn == "" {
				if len(v) != 0 {
					t.Fatalf("want pass, got %q", v)
				}
				return
			}
			if len(v) != 1 || !strings.Contains(v[0], tc.wantIn) {
				t.Fatalf("want one violation mentioning %q, got %q", tc.wantIn, v)
			}
		})
	}
}
