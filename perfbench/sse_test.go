package main

import (
	"strings"
	"testing"
)

func TestAccountSSE(t *testing.T) {
	// Anchor 10, engine ends at 20: 11 and 13 arrive swapped, 12 is lost
	// and covered (with 14) by a resync to 14, 12 then arrives stale, 15 is lost
	// for good below the last seen 16, and 17–20 are the end lag.
	ev := []sseEvent{{seq: 11}, {seq: 13}, {seq: 14, resync: true}, {seq: 12}, {seq: 16}}
	c, err := accountSSE(10, ev, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := sseCounts{deltas: 3, resynced: 2, gaps: 1, lag: 4, stale: 1, resyncs: 1}
	if c != want {
		t.Fatalf("counts %+v, want %+v", c, want)
	}
	for _, bad := range []struct {
		ev   []sseEvent
		want string
	}{
		{[]sseEvent{{seq: 11}, {seq: 11}}, "twice"},
		{[]sseEvent{{seq: 21}}, "beyond"},
	} {
		if _, err := accountSSE(10, bad.ev, 20); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("events %v: error %v, want %q", bad.ev, err, bad.want)
		}
	}
}
