package cost

import (
	"math"
	"sync"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/memo/memotest"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

func cachedEngine(t *testing.T, size int) *Engine {
	t.Helper()
	e, err := NewEngineWithCache(tech.Default(), packaging.DefaultParams(), size)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mcm2(t *testing.T, name string, area float64) system.System {
	t.Helper()
	s, err := system.PartitionEqual(name, "7nm", area, 2, packaging.MCM,
		dtod.Fraction{F: 0.10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheMatchesUncached verifies memoized evaluations are
// bit-identical to the direct computation.
func TestCacheMatchesUncached(t *testing.T) {
	plain, err := NewEngine(tech.Default(), packaging.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cached := cachedEngine(t, 64)
	s := mcm2(t, "x", 600)
	want, err := plain.RE(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated runs exercise both miss and hit paths
		got, err := cached.RE(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total() != want.Total() || got.RawChips != want.RawChips {
			t.Fatalf("run %d: cached RE %v != uncached %v", i, got.Total(), want.Total())
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Errorf("expected cache hits, got %+v", st)
	}
	// Both chiplets of the equal partition share one die shape.
	if st.Entries != 1 {
		t.Errorf("expected 1 cached die shape, got %+v", st)
	}
}

// TestCacheSalvageKeying verifies salvage-enabled dies do not collide
// with their full-good twins.
func TestCacheSalvageKeying(t *testing.T) {
	e := cachedEngine(t, 64)
	s := mcm2(t, "x", 600)
	plainRE, err := e.RE(s)
	if err != nil {
		t.Fatal(err)
	}
	salv := s
	salv.Placements = make([]system.Placement, len(s.Placements))
	copy(salv.Placements, s.Placements)
	salv.Placements[0].Chiplet.Salvage = &system.SalvageSpec{Fraction: 0.5, Value: 0.7}
	salvRE, err := e.RE(salv)
	if err != nil {
		t.Fatal(err)
	}
	if salvRE.Total() >= plainRE.Total() {
		t.Errorf("salvage should reduce effective cost: %v vs %v", salvRE.Total(), plainRE.Total())
	}
}

// TestCacheEviction verifies the FIFO bound holds and evicted keys
// are recomputed correctly. The bound is enforced per shard, so a
// size-n cache holds at most n entries once every shard has filled
// (and never more than n rounded up to the shard count).
func TestCacheEviction(t *testing.T) {
	e := cachedEngine(t, 32)
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			area := 200 + float64(i)*5
			if _, err := e.RE(mcm2(t, "x", area)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := e.CacheStats(); st.Entries > 32 {
		t.Errorf("cache exceeded its bound: %+v", st)
	}
}

// TestCacheConcurrent hammers one shared engine from many goroutines;
// run with -race to check the synchronization.
func TestCacheConcurrent(t *testing.T) {
	e := cachedEngine(t, 8)
	areas := []float64{300, 400, 500, 600, 700, 800}
	want := make([]float64, len(areas))
	for i, a := range areas {
		b, err := e.RE(mcm2(t, "w", a))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b.Total()
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, a := range areas {
					s, err := system.PartitionEqual("w", "7nm", a, 2, packaging.MCM,
						dtod.Fraction{F: 0.10}, 1)
					if err != nil {
						errc <- err
						return
					}
					b, err := e.RE(s)
					if err != nil {
						errc <- err
						return
					}
					if math.Abs(b.Total()-want[i]) > 1e-12 {
						t.Errorf("area %v: concurrent RE %v != %v", a, b.Total(), want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestKGDTablePointerFree(t *testing.T) {
	memotest.PointerFree[dieKey, dieValue](t)
}

// TestKGDHashFoldsNodeName checks that naming the node by id leaves
// every key's hash — and so its shard and eviction order — as it was
// when the key held the node's name: FNV-1a over the name bytes, then
// the area bits.
func TestKGDHashFoldsNodeName(t *testing.T) {
	db := tech.Default()
	hash := dieKeyHash(db)
	for _, name := range db.Names() {
		id, _ := db.NodeID(name)
		for _, area := range []float64{0.5, 100, 333.3, 1e6} {
			h := uint64(1469598103934665603)
			for i := 0; i < len(name); i++ {
				h = (h ^ uint64(name[i])) * 1099511628211
			}
			h = (h ^ math.Float64bits(area)) * 1099511628211
			if got := hash(dieKey{node: id, areaMM2: area, salvageFraction: 0.3}); got != h {
				t.Fatalf("%s %v: hash %#x, want %#x", name, area, got, h)
			}
		}
	}
}
