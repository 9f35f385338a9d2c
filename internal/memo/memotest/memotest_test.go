package memotest

import (
	"reflect"
	"testing"
)

func TestPointerPath(t *testing.T) {
	type flat struct {
		a int32
		b [2]float64
		c struct{ d bool }
	}
	type nested struct {
		a int
		b [1]struct{ c error }
	}
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeFor[flat](), ""},
		{reflect.TypeFor[[0]*int](), ""},
		{reflect.TypeFor[string](), "x (string)"},
		{reflect.TypeFor[nested](), "x.b[0].c (interface)"},
		{reflect.TypeFor[struct{ m map[int]int }](), "x.m (map)"},
		{reflect.TypeFor[[3]*int](), "x[0] (ptr)"},
	} {
		if got := pointerPath(c.typ, "x"); got != c.want {
			t.Errorf("%s: %q, want %q", c.typ, got, c.want)
		}
	}
}
