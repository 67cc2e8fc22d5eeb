package trace

import (
	"reflect"
	"strings"
	"testing"
)

// jsonKeys lists the JSON object keys a struct marshals to, in field order,
// with the fields of an untagged embedded struct in its place.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if f.Anonymous && tag == "" {
			keys = append(keys, jsonKeys(f.Type)...)
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		keys = append(keys, name)
	}
	return keys
}

// TestCheckpointKeysPinned pins the JSON keys a checkpoint writes for every
// live key and held segment, as literals: renaming one is a format change that
// strands every checkpoint on disk, not a refactor.
func TestCheckpointKeysPinned(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{KeyState{}, "key seq ops open openMaxFinish maxClosedFinish closedAny deque dispatched values " +
			"cumWrites cumMaxFinish totalClosed err errSeq kFloor atomic maxK saturated props"},
		{SegmentState{}, "lo hi writes cutAt ops"},
	} {
		typ := reflect.TypeOf(c.v)
		if got := strings.Join(jsonKeys(typ), " "); got != c.want {
			t.Errorf("%s JSON keys:\n got %s\nwant %s", typ.Name(), got, c.want)
		}
	}
}
