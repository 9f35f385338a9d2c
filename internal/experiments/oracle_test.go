package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
)

var update = flag.Bool("update", false, "rewrite testdata/oracle.json from the current model")

// TestOracleGolden pins every artifact cmd/figures prints (the figure
// cells, claims, ablations, extensions and robustness rows) to the last
// bit: the oracle's JSON, shortest round-trip floats, byte for byte.
// Regenerate with
//
//	go test ./internal/experiments -run TestOracleGolden -update
//
// and say in the change which numbers moved and why. The file is amd64
// output: on arm64, ppc64le, s390x and riscv64 the compiler may fuse a
// multiply and an add, which can move a last bit.
func TestOracleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("testdata/oracle.json is amd64 output; %s may fuse multiply-adds and move a last bit", runtime.GOARCH)
	}
	var out bytes.Buffer
	if err := WriteOracle(&out, tech.Default(), packaging.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "oracle.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("oracle differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}
