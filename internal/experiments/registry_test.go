package experiments_test

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	// The calibrate experiment registers itself from its init.
	_ "desiccant/internal/calibrate"
	"desiccant/internal/experiments"
)

// TestEveryEntryResolvesSeedAndQuick checks that each experiment's
// resolver honours both -seed and -quick: each changes the resolved
// value, and -seed replaces every seed in it. Only the two tables
// ignore every option and have no resolver. Resolving twice must give
// equal values, so a resolved value can be compared and recorded.
func TestEveryEntryResolvesSeedAndQuick(t *testing.T) {
	for _, e := range experiments.List() {
		if e.Resolve == nil {
			if e.Name != "table1" && e.Name != "table2" {
				t.Errorf("%s has no resolver", e.Name)
			}
			continue
		}
		base := e.Resolve(experiments.Options{})
		if !reflect.DeepEqual(e.Resolve(experiments.Options{}), base) {
			t.Errorf("%s: two resolutions of the same options differ", e.Name)
		}
		for _, opts := range []experiments.Options{{Seed: 5}, {Quick: true}} {
			if reflect.DeepEqual(e.Resolve(opts), base) {
				t.Errorf("%s: %+v resolves to the default value", e.Name, opts)
			}
		}
		seeds := seedsIn(reflect.ValueOf(e.Resolve(experiments.Options{Seed: 5})), nil)
		if len(seeds) == 0 || slices.ContainsFunc(seeds, func(s uint64) bool { return s != 5 }) {
			t.Errorf("%s: -seed 5 resolves to seeds %v", e.Name, seeds)
		}
	}
}

// seedsIn appends every uint64 field named Seed that v holds, through
// nested structs and non-nil pointers.
func seedsIn(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return seedsIn(v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name == "Seed" && f.Type.Kind() == reflect.Uint64 {
				out = append(out, v.Field(i).Uint())
			} else {
				out = seedsIn(v.Field(i), out)
			}
		}
	}
	return out
}

// TestRunRejectsInvalidOptions checks the library boundary: options no
// experiment can run with are an error naming the field, before
// anything runs or writes.
func TestRunRejectsInvalidOptions(t *testing.T) {
	for _, c := range []struct {
		opts  experiments.Options
		field string
	}{
		{experiments.Options{Intensity: math.NaN()}, "Intensity"},
		{experiments.Options{Intensity: -0.5}, "Intensity"},
		{experiments.Options{Intensity: 3}, "Intensity"},
		{experiments.Options{Parallel: -1}, "Parallel"},
	} {
		var buf bytes.Buffer
		err := experiments.Run("chaos", &buf, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.field) || buf.Len() != 0 {
			t.Errorf("%+v: err %v, %d bytes written; want an error naming %s and no output", c.opts, err, buf.Len(), c.field)
		}
	}
}
