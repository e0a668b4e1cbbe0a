package dynq_test

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"dynq"
	"dynq/internal/obs"
	"dynq/netq"
)

// TestOptionsMatchREADME keeps README's options table honest in both
// directions: every settable field of an option struct has a row, and
// every row naming one of those structs names a field it has. Together
// with TestFlagsMatchREADME it is the knob catalogue: a new option costs
// a row that says what it is for.
func TestOptionsMatchREADME(t *testing.T) {
	structs := map[string]reflect.Type{}
	for _, v := range []any{
		dynq.Options{}, dynq.ShardOptions{}, dynq.RecoverOptions{},
		dynq.MaintenanceOptions{}, dynq.CheckpointPolicy{}, dynq.WriteOptions{},
		dynq.PredictiveOptions{}, dynq.AdaptiveOptions{}, dynq.TrackerOptions{},
		netq.DialOptions{}, obs.SLOConfig{},
	} {
		typ := reflect.TypeOf(v)
		structs[typ.Name()] = typ
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([A-Z]\\w*)\\.([A-Z]\\w*)` \\|")
	documented := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(raw), -1) {
		typ, ok := structs[m[1]]
		if !ok {
			t.Errorf("README.md documents %s.%s: %s is not an option struct", m[1], m[2], m[1])
			continue
		}
		if f, ok := typ.FieldByName(m[2]); !ok || len(f.Index) != 1 {
			t.Errorf("README.md documents %s.%s, which has no such field", m[1], m[2])
		}
		documented[m[1]+"."+m[2]] = true
	}
	for name, typ := range structs {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			// An embedded struct (ShardOptions' Options) has rows of its own.
			if !f.IsExported() || f.Anonymous {
				continue
			}
			if !documented[name+"."+f.Name] {
				t.Errorf("%s.%s has no row in README.md's options table", name, f.Name)
			}
		}
	}
}
