package actuary_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"chipletactuary"
)

// nextOnly hides a source's NextSlab, so Session.Stream serves it
// through the slab-of-one adapter whatever the slab size.
type nextOnly struct{ src actuary.RequestSource }

func (n nextOnly) Next() (actuary.Request, bool) { return n.src.Next() }

// collectOrdered drains one ordered stream of the given grid shard
// into a slice. slabSize 0 means the default slab path; 1 forces the
// point path. wrap, when given, wraps the sweep source before
// streaming.
func collectOrdered(t *testing.T, s *actuary.Session, grid actuary.SweepGrid, shard, shards, resumeAt, slabSize int,
	wrap ...func(actuary.RequestSource) actuary.RequestSource) []actuary.Result {
	t.Helper()
	gen := grid.Points()
	if shards > 1 {
		gen.Shard(shard, shards)
	}
	src, err := actuary.SweepSource(gen, actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wrap {
		src = w(src)
	}
	opts := []actuary.StreamOption{actuary.StreamOrdered(), actuary.StreamResumeAt(resumeAt)}
	if slabSize > 0 {
		opts = append(opts, actuary.StreamSlabSize(slabSize))
	}
	ch, err := s.Stream(context.Background(), src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []actuary.Result
	for r := range ch {
		out = append(out, r)
	}
	return out
}

// TestSlabPathMatchesPointPath is the dispatch-equivalence property
// test: across randomized grids, shard counts, resume points and slab
// sizes, the slab path must deliver exactly the results the point path
// delivers — same indexes, same IDs, same bits, same errors. A
// Next-only wrapper of the same source holds the slab-of-one adapter
// to the same results.
func TestSlabPathMatchesPointPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newTestSession(t, actuary.WithWorkers(2))
	for trial := 0; trial < 3; trial++ {
		lo := 100 + float64(rng.Intn(200))
		n := 20 + rng.Intn(30)
		areas := make([]float64, n)
		for i := range areas {
			areas[i] = lo + 12.5*float64(i)
		}
		counts := []int{1, 2, 3, 4, 5, 6, 7, 8}[:2+rng.Intn(7)]
		grid := testGrid(areas, counts)
		for _, shards := range []int{1, 3} {
			for shard := 0; shard < shards; shard++ {
				resumeAt := rng.Intn(5)
				point := collectOrdered(t, s, grid, shard, shards, resumeAt, 1)
				if len(point) == 0 {
					t.Fatalf("trial %d shard %d/%d: point path empty", trial, shard, shards)
				}
				for _, slab := range []int{0, 5} { // default and a deliberately odd size
					got := collectOrdered(t, s, grid, shard, shards, resumeAt, slab)
					if !reflect.DeepEqual(got, point) {
						t.Fatalf("trial %d shard %d/%d resume %d slab %d: %d results diverge from point path (%d results)",
							trial, shard, shards, resumeAt, slab, len(got), len(point))
					}
				}
				wrapNext := func(src actuary.RequestSource) actuary.RequestSource { return nextOnly{src} }
				if got := collectOrdered(t, s, grid, shard, shards, resumeAt, 0, wrapNext); !reflect.DeepEqual(got, point) {
					t.Fatalf("trial %d shard %d/%d resume %d Next-only: %d results diverge from point path (%d results)",
						trial, shard, shards, resumeAt, len(got), len(point))
				}
			}
		}
	}
}

// TestSlabSweepBestMatchesPointPath runs sharded sweep-best requests
// through both dispatch modes of the same session and demands
// byte-identical answers, shard by shard.
func TestSlabSweepBestMatchesPointPath(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 200, 800, 50), []int{1, 2, 3, 4})
	const shards = 4
	reqs := make([]actuary.Request, shards)
	for i := range reqs {
		reqs[i] = actuary.Request{
			Question:   actuary.QuestionSweepBest,
			Grid:       &grid,
			TopK:       5,
			ShardIndex: i,
			ShardCount: shards,
		}
	}
	run := func(slabSize int) []actuary.Result {
		opts := []actuary.StreamOption{actuary.StreamOrdered()}
		if slabSize > 0 {
			opts = append(opts, actuary.StreamSlabSize(slabSize))
		}
		ch, err := s.Stream(context.Background(), actuary.SliceSource(reqs), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var out []actuary.Result
		for r := range ch {
			if r.Err != nil {
				t.Fatalf("shard %d failed: %v", r.Index, r.Err)
			}
			out = append(out, r)
		}
		return out
	}
	point := run(1)
	slab := run(0)
	if !reflect.DeepEqual(slab, point) {
		t.Fatalf("sweep-best answers diverge between slab and point dispatch:\nslab:  %+v\npoint: %+v", slab, point)
	}
}

// TestSlabResumeContinuation checks that a checkpoint cut anywhere in
// a slab-dispatched stream resumes into exactly the remaining suffix,
// whatever slab size the resumed stream uses — cursors are candidate-
// granular, never slab-granular.
func TestSlabResumeContinuation(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 100, 400, 20), []int{1, 2, 3})
	full := collectOrdered(t, s, grid, 0, 1, 0, 0)
	for _, cut := range []int{1, 7, len(full) - 2} {
		for _, slab := range []int{0, 1, 3} {
			rest := collectOrdered(t, s, grid, 0, 1, cut, slab)
			if !reflect.DeepEqual(rest, full[cut:]) {
				t.Fatalf("resume at %d with slab %d: suffix diverges (%d results, want %d)",
					cut, slab, len(rest), len(full)-cut)
			}
		}
	}
}
