package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const rate, window = 25, 20 * time.Second
	a, b := schedule(7, rate, window), schedule(7, rate, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if reflect.DeepEqual(a, schedule(8, rate, window)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	if len(a) != rate*20 {
		t.Fatalf("%d arrivals in %v at %v/s", len(a), window, rate)
	}
	hot := 0
	for i, r := range a {
		if r.due < 0 || r.due >= window || (i > 0 && r.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: not increasing inside the window", i, r.due)
		}
		if r.hot >= 0 {
			hot++
		}
	}
	if want := int(rate * 20 * hotShare); hot != want {
		t.Errorf("%d hot requests, want %d", hot, want)
	}
}

func TestFreshCellsNeverRepeatAndCoverTheMix(t *testing.T) {
	seen := map[cell]bool{}
	triples := map[[3]string]bool{}
	for k := 0; k < 1000; k++ {
		c := freshCell(3, k)
		if seen[c] {
			t.Fatalf("fresh cell %d repeats: %+v", k, c)
		}
		seen[c] = true
		if k < 432 {
			triples[[3]string{c.Workload, c.Config, c.Policy}] = true
		}
	}
	if len(triples) != 432 {
		t.Errorf("the first 432 fresh cells cover %d (model, config, policy) triples, want all 432", len(triples))
	}
}
