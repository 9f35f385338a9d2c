package main

import (
	"context"
	"flag"
	"io"
	"runtime"
	"strings"
	"testing"

	"chipletactuary"
)

// sessionFromArgs parses args the way run does and builds the Session
// the daemon would serve.
func sessionFromArgs(t *testing.T, args ...string) (*actuary.Session, error) {
	t.Helper()
	fs := flag.NewFlagSet("actuaryd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := addSessionFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts, err := sf.options()
	if err != nil {
		return nil, err
	}
	return actuary.NewSession(opts...)
}

// evaluateOne prices a uniform 2-chiplet MCM once: the uniform-shape
// table misses, so the point also goes through the KGD and
// packaging-partial tables.
func evaluateOne(t *testing.T, s *actuary.Session) {
	t.Helper()
	mcm, err := actuary.PartitionEqual("mcm", "5nm", 800, 2, actuary.MCM, actuary.D2DFraction(0.10), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Evaluate(context.Background(), []actuary.Request{
		{ID: "mcm", Question: actuary.QuestionTotalCost, System: mcm},
	}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestCacheFlags checks that the default flags fill the KGD,
// packaging-partial and uniform-shape tables, that -cache 0
// -partials-cache 0 leaves all three empty, and that a negative size is
// rejected.
func TestCacheFlags(t *testing.T) {
	t.Run("defaults memoize", func(t *testing.T) {
		s, err := sessionFromArgs(t)
		if err != nil {
			t.Fatal(err)
		}
		evaluateOne(t, s)
		ps := s.PartialsCacheStats()
		if s.CacheStats().Entries == 0 || ps.Packaging.Entries == 0 || ps.NRE.Entries == 0 {
			t.Fatalf("default flags left a cache empty: KGD %+v, partials %+v", s.CacheStats(), ps)
		}
	})
	t.Run("zero disables", func(t *testing.T) {
		s, err := sessionFromArgs(t, "-cache", "0", "-partials-cache", "0")
		if err != nil {
			t.Fatal(err)
		}
		evaluateOne(t, s)
		if st := s.CacheStats(); st != (actuary.KGDCacheStats{}) {
			t.Fatalf("-cache 0 still memoizes: %+v", st)
		}
		if ps := s.PartialsCacheStats(); ps != (actuary.PartialsStats{}) {
			t.Fatalf("-partials-cache 0 still memoizes: %+v", ps)
		}
	})
	for _, flagName := range []string{"cache", "partials-cache"} {
		t.Run("negative "+flagName+" rejected", func(t *testing.T) {
			_, err := sessionFromArgs(t, "-"+flagName, "-1")
			if err == nil || !strings.Contains(err.Error(), "-"+flagName+" -1") {
				t.Fatalf("-%s -1: err = %v, want a usage error naming the flag", flagName, err)
			}
		})
	}
}

// TestWorkersFlag checks that -workers fixes the pool width, that the
// default is one worker per CPU, and that the removed elastic-pool
// flags fail to parse: a command line written for them must fail
// loudly, not serve a different pool.
func TestWorkersFlag(t *testing.T) {
	s, err := sessionFromArgs(t, "-workers", "3")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 3 {
		t.Errorf("-workers 3: Workers() = %d, want 3", got)
	}
	if s, err = sessionFromArgs(t); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("no -workers: Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	// A canceled context makes run return at once if it ever gets past
	// parsing, so a wrongly accepted flag fails the test instead of
	// serving.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-workers-min", "2"},
		{"-workers-max", "16"},
		{"-resize-every", "2s"},
	} {
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%s: err = %v, want a parse error naming the flag", strings.Join(args, " "), err)
		}
	}
}
