package store

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"bgpblackholing/internal/analysis"
)

// TestDailySetsDuringAppends reads the day view while appends and
// tombstones grow and shrink it and the intern tables grow under it
// (run it under -race), then holds the settled view to a scan.
func TestDailySetsDuringAppends(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const events, days = 1500, 16 // 13 minutes apart: about 14 days
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := range events {
			ev := makeEvent(i)
			if err := s.Append(ev); err != nil {
				t.Error(err)
				return
			}
			if i%97 == 96 {
				if _, err := s.DeletePrefix(ev.Prefix, time.Time{}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	reads := 0
	for settled := false; !settled; reads++ {
		select {
		case <-done:
			settled = true
		default:
		}
		v, ok := s.DailySets(testEpoch, days)
		if !ok {
			t.Fatal("DailySets refused an aligned window")
		}
		for d := range days {
			for _, id := range v.DayProviders[d] {
				if int(id) >= len(v.Providers) {
					t.Fatalf("read %d day %d: provider %d of a %d-name table", reads, d, id, len(v.Providers))
				}
			}
			for _, id := range v.DayPrefixes[d] {
				if int(id) >= len(v.Prefixes) {
					t.Fatalf("read %d day %d: prefix %d of a %d-name table", reads, d, id, len(v.Prefixes))
				}
			}
		}
	}
	wg.Wait()

	v, _ := s.DailySets(testEpoch, days)
	got := analysis.NewFigure4Sets(testEpoch, v.Providers, v.Prefixes, v.DayProviders, v.DayUsers, v.DayPrefixes)
	scan := analysis.NewFigure4Union(testEpoch, days)
	for ev := range s.All() {
		scan.Observe(ev)
	}
	if want := scan.Sets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d reads the settled view diverges from the scan:\n got %+v\nwant %+v", reads, got, want)
	}
}
