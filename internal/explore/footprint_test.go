package explore

import (
	"runtime"
	"testing"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTableFootprint pins what a default-size evaluator's memo tables
// hold: almost nothing before any work, because each table grows as
// keys arrive, and, once a table holds its bound, its full ring and
// index — 0.3125 MiB for the 4096-entry KGD table, 1.5 MiB for the
// 8192 packaging partials and 1.375 MiB for the 8192 shapes — within
// 5%.
func TestTableFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const MiB = 1 << 20
	db := tech.Default()
	params := packaging.DefaultParams()
	base := liveHeap()
	ev, err := NewEvaluatorWithCaches(db, params, 4096, DefaultPartialsCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	last := liveHeap()
	if held := int64(last) - int64(base); held >= 64<<10 {
		t.Errorf("a default-size evaluator holds %d bytes before any work, want under 64 KiB", held)
	}
	node, err := db.NodeID("7nm")
	if err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		name    string
		bound   int
		wantMiB float64
		put     func(i int)
		entries func() int
	}{
		{"KGD", 4096, 0.3125,
			func(i int) { ev.Cost.REFloor(system.Monolithic("m", "7nm", 10+float64(i)/64, 1)) },
			func() int { return ev.Cost.CacheStats().Entries }},
		{"packaging partials", DefaultPartialsCacheSize, 1.5,
			func(i int) {
				ev.partials.Put(packaging.PartialKey{Scheme: packaging.MCM, Dies: 2, TotalDieAreaMM2: float64(i)},
					packaging.PartialOutcome{})
			},
			func() int { return ev.partials.Stats().Entries }},
		{"uniform shapes", DefaultPartialsCacheSize, 1.375,
			func(i int) {
				ev.shapes.Put(shapeKey{node: int32(node), scheme: uint8(packaging.MCM), k: 2, moduleArea: float64(i)},
					shapeEntry{})
			},
			func() int { return ev.shapes.Stats().Entries }},
	}
	for _, tb := range tables {
		for i := 0; tb.entries() < tb.bound; i++ {
			if i == 8*tb.bound {
				t.Fatalf("%s: %d entries after %d keys, want %d", tb.name, tb.entries(), i, tb.bound)
			}
			tb.put(i)
		}
		now := liveHeap()
		got := float64(int64(now)-int64(last)) / MiB
		last = now
		t.Logf("%s: %d entries hold %.4f MiB", tb.name, tb.entries(), got)
		if got < 0.95*tb.wantMiB || got > 1.05*tb.wantMiB {
			t.Errorf("%s: a full table holds %.4f MiB, want %.4f ± 5%%", tb.name, got, tb.wantMiB)
		}
	}
	runtime.KeepAlive(ev)
}
