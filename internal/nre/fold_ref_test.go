package nre

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
	"chipletactuary/internal/system/systemtest"
	"chipletactuary/internal/tech"
)

// refFold is fold as it was before the hash index: every claim sorted
// by key, claims on one design in walk order, then each system's
// claims on a design folded into one row. It is the reference model
// FuzzDesignTable and TestFoldMatchesReference check fold against.
func refFold(rows []row) ([]row, error) {
	perm := make([]int32, 0, len(rows))
	for i := range rows {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := rows[a].key.compare(&rows[b].key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	permute(rows, perm)
	conflict := row{step: -1}
	var conflictPrev float64
	w := 0
	for lo := 0; lo < len(rows); {
		first := rows[lo]
		hi := lo
		for ; hi < len(rows) && rows[hi].key.compare(&first.key) == 0; hi++ {
			r := rows[hi]
			if hi > lo {
				if r.cost != first.cost && (conflict.step < 0 || r.step < conflict.step) {
					conflict, conflictPrev = r, first.cost
				}
				if rows[w-1].sys == r.sys {
					rows[w-1].inst += r.inst
					continue
				}
			}
			r.head = hi == lo
			rows[w] = r
			w++
		}
		lo = hi
	}
	if conflict.step >= 0 {
		return nil, fmt.Errorf("nre: design %q used with two different costs (%v vs %v): same name must mean same design",
			conflict.key.String(), conflictPrev, conflict.cost)
	}
	return rows[:w], nil
}

// claimCosts are the costs a decoded claim may carry: repeats, so that
// most designs agree with themselves, and values that conflict (NaN
// conflicts even with itself).
var claimCosts = []float64{1, 1, 1, 2, 2.5, 0, math.NaN(), 1e9}

// decodeClaims turns fuzz bytes into a walk of claims: after a repeat
// byte, two bytes a claim — kind, node, name, cost, instance count and
// whether the claim starts a new system — over systemtest's node and
// name alphabet, where "7nm/x" with "A" and "7nm" with "x/A" join to
// one module key. The pattern repeats so that short inputs still make
// walks of hundreds of claims, with systems numbered in walk order and
// every row's step its walk index, as the walk makes them.
func decodeClaims(data []byte) []row {
	if len(data) < 3 {
		return nil
	}
	repeats := 1 + int(data[0])%48
	data = data[1:]
	var rows []row
	sys := 0
	for r := 0; r < repeats; r++ {
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			if b&0x80 != 0 {
				sys++
			}
			k := designKey{
				kind: Kind(a & 3),
				node: systemtest.Nodes[int(a>>2&7)%len(systemtest.Nodes)],
				name: systemtest.Names[int(b&7)%len(systemtest.Names)],
			}
			// The walk leaves the field a kind's key ignores empty.
			switch k.kind {
			case ChipDesign, PackageDesign:
				if b&0x40 == 0 {
					k.node = ""
				}
			case D2DDesign:
				if b&0x40 == 0 {
					k.name = ""
				}
			}
			rows = append(rows, row{key: k, cost: claimCosts[a>>5], inst: float64(1 + b>>3&7), sys: sys, step: len(rows)})
		}
		sys++
	}
	return rows
}

// checkFold runs fold and the reference on copies of rows and requires
// the same rows, by %#v bytes (NaN defeats ==), or the same error.
func checkFold(t *testing.T, rows []row) {
	t.Helper()
	got, gerr := fold(slices.Clone(rows))
	want, werr := refFold(slices.Clone(rows))
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%d claims: error %v, want %v", len(rows), gerr, werr)
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("%d claims:\n got %s\nwant %s", len(rows), g, w)
	}
}

// FuzzDesignTable checks the hash-grouped fold against the sort-based
// reference on decoded claim walks: duplicate claims at different
// costs, keys whose strings join across node and name, and walks past
// every stack tier of the fold's scratch.
func FuzzDesignTable(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x00, 0x01, 0x80, 0x02, 0x81, 0x03, 0x02})
	// Module "A" on "7nm/x" and module "x/A" on "7nm": one design.
	f.Add([]byte{0, 0x0c, 0x00, 0x04, 0x85})
	// The same pair at different costs: a conflict.
	f.Add([]byte{3, 0x0c, 0x00, 0x24, 0x85, 0x01, 0x02})
	// "A/" as a module name and as a package name.
	f.Add([]byte{5, 0x04, 0x02, 0x03, 0xc2, 0x02, 0x82})
	// Twenty claims repeated 40 times: 800 claims, past the stack.
	long := []byte{39}
	for i := 0; i < 20; i++ {
		long = append(long, byte(i*37), byte(i*11)|byte(i%4)<<6)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFold(t, decodeClaims(data))
	})
}

// TestFoldMatchesReference runs the fold against the reference on
// every claim-count boundary of its scratch tiers, on walks drawn from
// the fuzz alphabet.
func TestFoldMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 127, 128, 129, 511, 512, 513, 1500} {
		for seed := 0; seed < 8; seed++ {
			data := make([]byte, 1+2*n)
			for i := range data {
				data[i] = byte((i+1)*(seed*31+7) + i*i*seed)
			}
			data[0] = 0
			rows := decodeClaims(data)
			if n > 0 && len(rows) != n {
				t.Fatalf("decoded %d claims, want %d", len(rows), n)
			}
			checkFold(t, rows)
		}
	}
}

// BenchmarkFold times fold and the sort-based reference on the claim
// walks of small and large §5 portfolios: three monolithic systems
// (every claim its own design), three SCMS systems and a 34-member
// FSMC family (214 claims on 8 designs).
func BenchmarkFold(b *testing.B) {
	e, err := NewEngine(tech.Default(), packaging.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	params := packaging.DefaultParams()
	scms, err := reuse.SCMS(reuse.SCMSConfig{Node: "7nm", ModuleAreaMM2: 150, Counts: []int{1, 2, 4},
		Scheme: packaging.MCM, QuantityPerSystem: 5e5, Params: params})
	if err != nil {
		b.Fatal(err)
	}
	fsmc, err := reuse.FSMC(reuse.FSMCConfig{Node: "5nm", ModuleAreaMM2: 100, Types: 3, Sockets: 4,
		Scheme: packaging.InFO, QuantityPerSystem: 5e5, Params: params})
	if err != nil {
		b.Fatal(err)
	}
	var twins []system.System
	for _, s := range scms {
		twins = append(twins, reuse.SoCEquivalent(s, "7nm"))
	}
	for _, c := range []struct {
		name    string
		systems []system.System
	}{{"SCMS-SoC-twins", twins}, {"SCMS", scms}, {"FSMC-3x4", fsmc}} {
		walk, err := e.walk(c.systems)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]row, len(walk))
		for name, f := range map[string]func([]row) ([]row, error){"hash": fold, "sort": refFold} {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(rows, walk)
					if _, err := f(rows); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPermuteMatchesGather checks permute against a gather into a
// fresh slice on random injective maps: full permutations, which the
// reference fold uses, and the partial ones fold makes when claims fold
// away, whose chains end at a row no one takes.
func TestPermuteMatchesGather(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	for draw := 0; draw < 2000; draw++ {
		n := r.IntN(40)
		rows := make([]row, n)
		for i := range rows {
			rows[i] = row{key: designKey{name: fmt.Sprint(i)}, cost: float64(i), step: i}
		}
		src := r.Perm(n)[:r.IntN(n+1)]
		perm := make([]int32, len(src))
		want := make([]row, len(src))
		for k, i := range src {
			perm[k] = int32(i)
			want[k] = rows[i]
		}
		permute(rows, perm)
		if g, w := fmt.Sprintf("%#v", rows[:len(src)]), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("draw %d, map %v:\n got %s\nwant %s", draw, src, g, w)
		}
	}
}
