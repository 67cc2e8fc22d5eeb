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

// TestCheckpointKeysPinned pins the JSON keys a checkpoint writes — its top
// level, the carried counters, every live key and held segment, every retired
// key, property verdict and epoch window — as literals: renaming one is a
// format change that strands every checkpoint on disk, not a refactor.
func TestCheckpointKeysPinned(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{KeyState{}, "key seq ops open openMaxFinish maxClosedFinish closedAny deque dispatched values " +
			"cumWrites cumMaxFinish totalClosed err errSeq kFloor atomic maxK saturated props"},
		{SegmentState{}, "lo hi writes cutAt ops"},
		{SessionCheckpoint{}, "mode properties k threshold flushed err stats keys " +
			"retireTTL epochLength watermark retirements readmissions retired epochs"},
		{CarriedStats{}, "segments merges staleReads peakBuffered firstVerdict spills opsSpilled spillLoads"},
		{RetiredKeyState{}, "key ops maxClosedFinish err atomic maxK saturated props"},
		{PropState{}, "property delta unsafe irregular saturated"},
		{EpochStats{}, "epoch folded ops segments staleReads maxK maxDelta violations unsafeReads irregularReads errors"},
	} {
		typ := reflect.TypeOf(c.v)
		if got := strings.Join(jsonKeys(typ), " "); got != c.want {
			t.Errorf("%s JSON keys:\n got %s\nwant %s", typ.Name(), got, c.want)
		}
	}
}
