// Package memotest checks the key and value types of memo tables.
package memotest

import (
	"reflect"
	"testing"
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
