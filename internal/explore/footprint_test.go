package explore

import (
	"runtime"
	"testing"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/memo/memotest"
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
// keys arrive, and, once a table holds its bound, its full rings and
// indexes, within 5% of the bytes memotest.FullBytes derives from the
// size of its entry — 0.25 MiB for the 4096-entry KGD table and
// 1.125 MiB each for the 8192 packaging partials and the 8192 shapes.
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
		full    int
		put     func(i int)
		entries func() int
	}{
		{"KGD", 4096, memotest.FullBytes((*cost.KGDCache)(nil), 4096),
			func(i int) { ev.Cost.REFloor(system.Monolithic("m", "7nm", 10+float64(i)/64, 1)) },
			func() int { return ev.Cost.CacheStats().Entries }},
		{"packaging partials", DefaultPartialsCacheSize, memotest.FullBytes(ev.partials, DefaultPartialsCacheSize),
			func(i int) {
				var pt packaging.Partial
				k := packaging.PartialKey{Scheme: packaging.MCM, Dies: 2, TotalDieAreaMM2: float64(i)}
				packaging.CachedPartial(ev.partials, &params, db, k, &pt)
			},
			func() int { return ev.partials.Stats().Entries }},
		{"uniform shapes", DefaultPartialsCacheSize, memotest.FullBytes(ev.shapes, DefaultPartialsCacheSize),
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
		want := float64(tb.full) / MiB
		t.Logf("%s: %d entries hold %.4f MiB, %.4f derived", tb.name, tb.entries(), got, want)
		if got < 0.95*want || got > 1.05*want {
			t.Errorf("%s: a full table holds %.4f MiB, want %.4f ± 5%%", tb.name, got, want)
		}
	}
	runtime.KeepAlive(ev)
}
