package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chipletactuary"
)

func TestPaybackMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "payback", "-node", "5nm", "-area", "800"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pays back") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestOptimalKMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "optimal-k", "-node", "5nm", "-area", "800", "-quantity", "2000000"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "optimum:") || !strings.Contains(s, "Partition sweep") {
		t.Errorf("unexpected output: %s", s)
	}
}

func TestTurningMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "turning", "-node", "5nm", "-chiplets", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "starts beating") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestSensitivityMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "sensitivity", "-node", "7nm", "-area", "600", "-chiplets", "3", "-scheme", "2.5D"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "swing") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "nonsense"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(context.Background(), []string{"-mode", "payback", "-scheme", "3D"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
	// Payback that never happens: tiny cheap system on 2.5D.
	if err := run(context.Background(), []string{"-mode", "payback", "-node", "14nm", "-area", "100", "-scheme", "2.5D"}, &out); err == nil {
		t.Error("expected never-pays-back error")
	}
}

// TestPartitionCountBound checks that partition counts past
// system.MaxPartitionCount are errors, not a panic in the system
// builder: a sweep count range at the top of the int range and a
// payback with that many chiplets.
func TestPartitionCountBound(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "sweep", "-nodes", "7nm", "-schemes", "MCM", "-area-range", "100:100:1",
			"-count-range", "9223372036854775806:9223372036854775807"},
		{"-mode", "payback", "-chiplets", "9223372036854775807"},
		{"-mode", "sweep", "-nodes", "7nm", "-schemes", "MCM", "-area-range", "100:100:1", "-count-range", "4096:4097"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "4096") {
			t.Errorf("%v: err = %v, want an error naming the bound of 4096", args, err)
		}
	}
}

func TestSweepMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "sweep",
		"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
		"-area-range", "200:600:200", "-count-range", "1:4", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Top 3 of", "Pareto front", "cheapest"} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep output lacks %q:\n%s", want, s)
		}
	}
	// Axis values must show up as generated point IDs.
	if !strings.Contains(s, "sweep-7nm-") {
		t.Errorf("sweep output names no 7nm points:\n%s", s)
	}
}

func TestSearchMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "search",
		"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
		"-area-range", "200:600:100", "-count-range", "1:4", "-top", "3",
		"-refine", "4:1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Top 3 by adaptive search") {
		t.Errorf("search output lacks the top table:\n%s", s)
	}
	if !strings.Contains(s, "search-7nm-") {
		t.Errorf("search output names no 7nm points:\n%s", s)
	}
	for _, args := range [][]string{
		{"-mode", "search", "-refine", "one"},
		{"-mode", "search", "-refine", "1"},    // factor < 2
		{"-mode", "search", "-halving", "8"},   // missing sample
		{"-mode", "search", "-halving", "8:0"}, // sample < 1
		{"-mode", "search", "-budget", "-3"},   // negative budget
		{"-mode", "search", "-shards", "2"},    // sweep-only flag
		{"-mode", "search", "-backends", "local"},
		{"-mode", "sweep", "-budget", "10"}, // search-only flag
		{"-mode", "sweep", "-halving", "4:8"},
		{"-mode", "payback", "-refine", "4"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSearchModeCheckpointResume(t *testing.T) {
	// A search interrupted by checkpoint-save must resume from the file
	// and still print the answer; the file disappears on success.
	dir := t.TempDir()
	cp := dir + "/search.ckpt"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "search",
		"-node", "7nm", "-scheme", "MCM", "-area-range", "200:600:100",
		"-count-range", "1:4", "-top", "2", "-halving", "4:8",
		"-checkpoint", cp, "-checkpoint-every", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Top 2 by adaptive search") {
		t.Errorf("checkpointed search produced no table:\n%s", out.String())
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file not removed after success: %v", err)
	}
}

func TestSweepModeDefaultsAndErrors(t *testing.T) {
	// Singular -node/-scheme/-area defaults with the implicit 1:-maxk
	// count axis still sweep.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "sweep", "-node", "7nm",
		"-scheme", "MCM", "-area", "400", "-maxk", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Top ") {
		t.Errorf("default sweep produced no table:\n%s", out.String())
	}
	for _, args := range [][]string{
		{"-mode", "sweep", "-area-range", "bad"},
		{"-mode", "sweep", "-area-range", "100:500"},
		{"-mode", "sweep", "-count-range", "1:2:3"},
		{"-mode", "sweep", "-count-range", "x:2"},
		{"-mode", "sweep", "-top", "0"},
		{"-mode", "sweep", "-nodes", "2nm"},
		{"-mode", "payback", "-nodes", "5nm,7nm"},
		{"-mode", "optimal-k", "-top", "3"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSweepModeBackends(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-mode", "sweep", "-nodes", "5nm,7nm",
			"-area-range", "200:500:100", "-count-range", "1:4", "-top", "3"}, extra...)
	}
	var single bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	// Three in-process backends over five shards must print exactly the
	// single-process answer — the determinism guarantee, CLI edition.
	var dist bytes.Buffer
	if err := run(context.Background(), args("-backends", "local,local,local", "-shards", "5"), &dist); err != nil {
		t.Fatal(err)
	}
	if single.String() != dist.String() {
		t.Errorf("distributed output diverged:\n--- single\n%s--- distributed\n%s", single.String(), dist.String())
	}
	// A daemon URL that is not listening fails with a transport error.
	var buf bytes.Buffer
	if err := run(context.Background(), args("-backends", "http://127.0.0.1:1"), &buf); err == nil {
		t.Error("unreachable backend accepted")
	}
	// -backends and -shards are sweep-only flags.
	for _, bad := range [][]string{
		{"-mode", "payback", "-backends", "local"},
		{"-mode", "turning", "-shards", "2"},
		{"-mode", "sweep", "-backends", "ftp://nope"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), bad, &buf); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

func TestSweepModeBackendsPartialFailure(t *testing.T) {
	// A grid with one failing node axis value: the printed "first
	// infeasible point" line must match the single-process run even
	// though the failure is found by whichever shard owns it.
	args := func(extra ...string) []string {
		return append([]string{"-mode", "sweep", "-nodes", "7nm,2nm",
			"-area-range", "200:400:100", "-count-range", "1:3", "-top", "2"}, extra...)
	}
	var single, dist bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(single.String(), "first infeasible point") {
		t.Fatalf("partial-failure sweep printed no failure line:\n%s", single.String())
	}
	if err := run(context.Background(), args("-backends", "local,local", "-shards", "4"), &dist); err != nil {
		t.Fatal(err)
	}
	if single.String() != dist.String() {
		t.Errorf("distributed output diverged:\n--- single\n%s--- distributed\n%s", single.String(), dist.String())
	}
}

func TestStreamMode(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-mode", "stream", "-questions", "total-cost,optimal-chiplet-count",
			"-nodes", "5nm,7nm", "-schemes", "MCM,2.5D",
			"-area-range", "200:860:220", "-count-range", "1:4"}, extra...)
	}
	var single bytes.Buffer
	if err := run(context.Background(), args(), &single); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(single.String(), "\n"); n < 20 {
		t.Fatalf("in-process stream emitted %d lines; the grid is too small to stripe", n)
	}
	// Striped streams on either flag, checkpointed or not, emit exactly
	// the in-process NDJSON.
	cp := filepath.Join(t.TempDir(), "stream.ckpt")
	for _, extra := range [][]string{
		{"-backends", "local,local,local", "-shards", "5"},
		{"-fleet", "local,local", "-shards", "4"},
		{"-backends", "local,local", "-checkpoint", cp, "-checkpoint-every", "7"},
	} {
		var striped bytes.Buffer
		if err := run(context.Background(), args(extra...), &striped); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if striped.String() != single.String() {
			t.Errorf("%v: striped stream diverged:\n--- single\n%s--- striped\n%s", extra, single.String(), striped.String())
		}
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file not removed after success: %v", err)
	}
	for _, bad := range [][]string{
		args("-checkpoint", cp), // in-process streams have no cursor to save
		args("-backends", "local", "-fleet", "local"),
		args("-backends", "local", "-fleet-probe-every", "1s"),
		{"-mode", "stream", "-top", "0", "-backends", "local"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), bad, &buf); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

// TestFleetFailsFastWhenNoBackendAnswers: a -fleet list whose every
// backend fails its first probe must end with a transport error, not
// park waiting for a mark-up. The wedged daemon accepts connections
// and never answers — its probes time out and its evaluations hang —
// so only the pre-dispatch probe round can end the run before the
// deadline. A list with one live backend still prints the
// single-process answer.
func TestFleetFailsFastWhenNoBackendAnswers(t *testing.T) {
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer wedged.Close()
	defer close(release)

	grid := []string{"-nodes", "5nm,7nm", "-area-range", "200:500:100", "-count-range", "1:4", "-top", "3"}
	probe := []string{"-fleet-probe-timeout", "100ms"}
	for _, mode := range []string{"sweep", "stream"} {
		args := func(extra ...string) []string {
			return append(append([]string{"-mode", mode}, grid...), extra...)
		}
		for _, list := range []string{"http://127.0.0.1:1", wedged.URL, "http://127.0.0.1:1," + wedged.URL} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			var buf bytes.Buffer
			err := run(ctx, args(append(probe, "-fleet", list)...), &buf)
			expired := ctx.Err()
			cancel()
			if expired != nil {
				t.Fatalf("%s -fleet %s: still running at the deadline (%v)", mode, list, err)
			}
			if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrTransport {
				t.Errorf("%s -fleet %s: err = %v, want a transport error", mode, list, err)
			}
		}
		var single, mixed bytes.Buffer
		if err := run(context.Background(), args(), &single); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), args("-fleet", "local,http://127.0.0.1:1"), &mixed); err != nil {
			t.Fatalf("%s with one live backend: %v", mode, err)
		}
		if mixed.String() != single.String() {
			t.Errorf("%s with one live backend diverged:\n--- single\n%s--- fleet\n%s", mode, single.String(), mixed.String())
		}
	}
}
