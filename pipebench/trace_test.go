package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "scan", Start: 0, End: 100},
		// Overlapping children cover [10,60): 50, not 30+30.
		{ID: 2, Parent: 1, Layer: "tldsim", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "tldsim", Start: 30, End: 60},
		// A child running past its parent counts only inside it: [90,100).
		{ID: 4, Parent: 1, Layer: "dataset", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Layer: "memnet", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"scan":    100 - 60,
		"tldsim":  (30 - 10) + 30,
		"dataset": 30,
		"memnet":  10,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.start("scan", "x", 0, 1)
	r.fold(id, 3, time.Second)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded something")
	}
}

func TestRecorderParentsAndFolds(t *testing.T) {
	r := newRecorder()
	root := r.start("scan", "day", 0, 7)
	child := r.start("tldsim", "prepare", root, 0)
	r.fold(child, 2, 3*time.Millisecond)
	r.fold(child, 1, time.Millisecond)
	r.end(child)
	spans := r.snapshot() // the open root is closed at snapshot time
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Trace != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Count != 3 || spans[1].BusyNs != int64(4*time.Millisecond) {
		t.Fatalf("folded = %d, %v", spans[1].Count, time.Duration(spans[1].BusyNs))
	}
	if spans[0].End < spans[1].End {
		t.Fatal("open root not closed at snapshot")
	}
}
