// Package reuse builds the chiplet-reuse architectures of the paper's
// §5: SCMS (single chiplet, multiple systems), OCME (one center,
// multiple extensions) and FSMC (a few sockets, multiple
// collocations), including the package-reuse variants and OCME's
// heterogeneous center die.
package reuse

import (
	"fmt"
	"math"
	"strconv"
)

// Choose returns the binomial coefficient C(n, k) as a float64 (the
// counts in play stay far below 2^53). It returns 0 for k < 0 or
// k > n.
func Choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := 1.0
	for i := 1; i <= k; i++ {
		result = result * float64(n-k+i) / float64(i)
	}
	return math.Round(result)
}

// Multichoose returns the number of multisets of size k drawn from n
// types: C(n+k-1, k).
func Multichoose(n, k int) float64 {
	return Choose(n+k-1, k)
}

// CollocationCount is the paper's §5.3 formula for the number of
// distinct systems buildable from n chiplet types in a package with k
// sockets, allowing partial occupancy:
//
//	Σ_{i=1..k} C(n+i-1, i)
//
// Note: the paper's text quotes "up to 119" systems for n=6, k=4, but
// the formula evaluates to 209; we implement the formula and record
// the discrepancy in EXPERIMENTS.md.
func CollocationCount(n, k int) float64 {
	var total float64
	for i := 1; i <= k; i++ {
		total += Multichoose(n, i)
	}
	return total
}

// Collocation is one way to populate a package: Counts[t] copies of
// chiplet type t. The total count is between 1 and the socket count.
type Collocation struct {
	Counts []int
}

// Size returns the number of occupied sockets.
func (c Collocation) Size() int {
	n := 0
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// Label renders a stable human-readable name such as "T1x2+T3".
func (c Collocation) Label() string {
	var buf [32]byte
	return string(c.appendLabel(buf[:0]))
}

// appendLabel appends the collocation's label to b.
func (c Collocation) appendLabel(b []byte) []byte {
	start := len(b)
	for t, v := range c.Counts {
		if v < 1 {
			continue
		}
		if len(b) > start {
			b = append(b, '+')
		}
		b = append(b, 'T')
		b = strconv.AppendInt(b, int64(t+1), 10)
		if v > 1 {
			b = append(b, 'x')
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return b
}

// labelLen returns len(c.Label()) without building the label.
func (c Collocation) labelLen() int {
	n := 0
	for t, v := range c.Counts {
		if v < 1 {
			continue
		}
		if n > 0 {
			n++ // '+'
		}
		n += 1 + decimalLen(t+1)
		if v > 1 {
			n += 1 + decimalLen(v)
		}
	}
	return n
}

// decimalLen returns the number of decimal digits of v ≥ 0.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// maxCollocationCounts bounds the counts Collocations lays out (types ×
// collocations): 1<<24 words is far past any package the paper's §5.3
// considers (6 types in 4 sockets make 209 collocations).
const maxCollocationCounts = 1 << 24

// Collocations enumerates every multiset of 1..k chiplets drawn from n
// types, in deterministic order: by size, then by counts in descending
// lexicographic order, so "T1x2" precedes "T1+T2", which precedes "T2x2".
// Every collocation's counts are carved from one backing array, each
// with its capacity equal to its length.
func Collocations(n, k int) ([]Collocation, error) {
	if n < 1 {
		return nil, fmt.Errorf("reuse: need at least one chiplet type, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("reuse: need at least one socket, got %d", k)
	}
	count := CollocationCount(n, k)
	if count*float64(n) > maxCollocationCounts {
		return nil, fmt.Errorf("reuse: %d chiplet types in %d sockets make %v collocations, too many to enumerate", n, k, count)
	}
	total := int(count)
	backing := make([]int, total*n)
	out := make([]Collocation, 0, total)
	for size := 1; size <= k; size++ {
		// The first multiset of a size puts every chiplet on type 0.
		next := backing[len(out)*n : (len(out)+1)*n : (len(out)+1)*n]
		next[0] = size
		for {
			out = append(out, Collocation{Counts: next})
			// The successor in descending order takes one chiplet off
			// the last type j < n−1 that has any and moves it, with
			// every chiplet after j, onto type j+1.
			j := n - 2
			for j >= 0 && next[j] == 0 {
				j--
			}
			if j < 0 {
				break
			}
			prev := next
			next = backing[len(out)*n : (len(out)+1)*n : (len(out)+1)*n]
			copy(next[:j], prev[:j])
			next[j] = prev[j] - 1
			next[j+1] = 1
			for t := j + 1; t < n; t++ {
				next[j+1] += prev[t]
			}
		}
	}
	return out, nil
}
