// Package memotest checks the key and value types of memo tables.
package memotest

import (
	"reflect"
	"testing"
	"unsafe"

	"chipletactuary/internal/memo"
)

// PointerFree fails t when the key type K or the value type V of a
// memo table holds a pointer anywhere: a pointer, string, slice, map,
// channel, function or interface, directly or in a field or array
// element. The collector never scans a table whose entries hold none.
func PointerFree[K, V any](t testing.TB) {
	t.Helper()
	for _, typ := range []reflect.Type{reflect.TypeFor[K](), reflect.TypeFor[V]()} {
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerPath returns the path to the first pointer in t, or "".
func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		if t.Len() > 0 {
			return pointerPath(t.Elem(), path+"[0]")
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// FullBytes returns the bytes a memo table of bound max with key K and
// value V holds once each of its 16 shards holds its share, ⌈max/16⌉
// entries: a ring of that many {K, V} entries and an index of the
// smallest power of two, at least 2, of 8-byte words that is at least
// twice as many, each block rounded up to the allocator's size class.
// Only the table's type is read; pass a nil one to name it.
func FullBytes[K comparable, V any](_ *memo.Cache[K, V], max int) int {
	per := (max + 15) / 16
	words := 2
	for words < 2*per {
		words *= 2
	}
	entry := int(unsafe.Sizeof(struct {
		k K
		v V
	}{}))
	return 16 * (sizeClass(per*entry) + sizeClass(8*words))
}

// sizeClass returns the size of the block the allocator hands out for
// n bytes of pointer-free data: appending n bytes to a nil slice rounds
// its capacity up to exactly that.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }
