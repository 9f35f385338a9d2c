package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current model")

// TestRunAllGolden pins the output of -fig all (every figure, claim,
// ablation, extension and robustness row) byte for byte, so a change
// that moves any printed number fails here. Regenerate with
//
//	go test ./cmd/figures -run TestRunAllGolden -update
//
// and say in the change which numbers moved and why. The file is
// amd64 output: on arm64, ppc64le, s390x and riscv64 the compiler may
// fuse a multiply and an add, which can flip a printed digit.
func TestRunAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("testdata/all.golden is amd64 output; %s may fuse multiply-adds and print other digits", runtime.GOARCH)
	}
	var out bytes.Buffer
	if err := run([]string{"-fig", "all"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("-fig all differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

// TestRunJSON checks that -json writes the oracle document the
// experiments package pins in its testdata, and refuses -fig.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	for _, key := range []string{"Fig2", "Fig4", "Fig10", "Claims", "FlowAblation", "NodeMigration", "Robustness"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("-json output has no %q", key)
		}
	}
	if runtime.GOARCH == "amd64" {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "oracle.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Error("-json output differs from internal/experiments/testdata/oracle.json")
		}
	}
	if err := run([]string{"-json", "-fig", "4"}, &out); err == nil {
		t.Error("-json -fig 4 accepted")
	}
}

func TestRunSingleFigures(t *testing.T) {
	cases := map[string]string{
		"2":          "Figure 2a",
		"4":          "Figure 4 —",
		"5":          "Figure 5",
		"6":          "Figure 6",
		"8":          "Figure 8",
		"9":          "Figure 9",
		"10":         "Figure 10",
		"claims":     "payback-5nm",
		"ablations":  "chip-last advantage",
		"extensions": "process maturity",
		"robustness": "Monte Carlo",
	}
	for fig, want := range cases {
		var out bytes.Buffer
		if err := run([]string{"-fig", fig}, &out); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("-fig %s: output missing %q", fig, want)
		}
	}
}

func TestRunAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"==== Figure 2 ====", "==== Figure 10 ====", "==== In-text claims ====", "==== Ablations ====",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	// Every artifact — including the Monte Carlo robustness study —
	// must be byte-identical across runs (fixed seeds, no wall-clock
	// input).
	var a, b bytes.Buffer
	if err := run([]string{"-fig", "robustness"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "robustness"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("robustness output differs across runs")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "99"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-tech", "/missing.json"}, &out); err == nil {
		t.Error("missing tech file accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}
