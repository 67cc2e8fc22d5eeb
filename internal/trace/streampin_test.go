package trace

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"kat/internal/core"
)

// pinRounds writes rounds [from, to) of the pinned trace. One round is 100
// time units: key a is a write/read staircase whose reads sometimes reach
// two writes back (a deque merge) and once reach the first write (past the
// horizon); key b needs k=2 every round; key c carries a dangling read; key
// d only exists from round 12 on, so a run that dies in round 10 must not
// report it.
func pinRounds(b *strings.Builder, from, to int) {
	for i := from; i < to; i++ {
		base := 100 * i
		v := i
		switch {
		case i == 20:
			v = 1
		case i%6 == 0:
			v = i - 2
		}
		fmt.Fprintf(b, "w a %d %d %d\n", i, base, base+5)
		fmt.Fprintf(b, "w b %d %d %d\n", 2*i-1, base, base+10)
		fmt.Fprintf(b, "w c %d %d %d\n", i, base, base+5)
		fmt.Fprintf(b, "r a %d %d %d\n", v, base+10, base+15)
		if i == 7 {
			fmt.Fprintf(b, "r c 999 %d %d\n", base+10, base+15)
		}
		if i >= 12 {
			fmt.Fprintf(b, "w d %d %d %d; r d %d %d %d\n", i, base+12, base+14, i, base+16, base+18)
		}
		fmt.Fprintf(b, "w b %d %d %d\n", 2*i, base+20, base+30)
		fmt.Fprintf(b, "r b %d %d %d\n", 2*i-1, base+40, base+50)
	}
}

// TestReaderDrivenPinned pins what StreamCheck, StreamSmallestKByKey and
// StreamVerdictsByKey return — the per-key results, the scheduling-independent
// statistics and the error — for text and wire renderings of one trace, clean
// and with each kind of input failure in the middle. The literals were
// recorded from the per-operation reader loop these functions had before
// they became a Session fed in chunks and flushed, so they hold the contract
// chunking must not bend: operations before a bad line stay ingested and
// reported, the failing operation still counts in Stats.Ops, and after an
// input error nothing still held is flushed (Segments stays at what had
// dispatched).
func TestReaderDrivenPinned(t *testing.T) {
	var head, tail strings.Builder
	pinRounds(&head, 1, 10)
	pinRounds(&tail, 10, 25)

	type input struct {
		name string
		text string // fed whole, or up to garbage
		bad  string // text: a malformed line; wire: bytes that are no frame
		rest string
		// textErr / wireErr are the error all three functions return ("" for
		// none); the two formats differ only where the parser reports.
		textErr, wireErr string
	}
	inputs := []input{
		{name: "clean", text: head.String() + tail.String()},
		{name: "parse", text: head.String(), bad: "w a 1 0\n", rest: tail.String(),
			textErr: `trace: segment 56 ("w a 1 0"): want kind key value start finish`,
			wireErr: `wire: bad magic "not " (not a wire frame) at byte offset 339`},
		{name: "order", text: head.String() + "w a 777 5 6\n" + tail.String(),
			textErr: `trace: operation starts at or before a committed cut (key "a", op "w 777 5 6", cut at 905)`},
	}
	for _, in := range inputs {
		for _, format := range []string{"text", "wire"} {
			open := func() io.Reader {
				if format == "text" {
					return strings.NewReader(in.text + in.bad + in.rest)
				}
				stream := wireStreamOf(t, keyedOpsOf(t, in.text), 7, false)
				if in.bad != "" {
					stream = append(stream, "not a frame"...)
					stream = append(stream, wireStreamOf(t, keyedOpsOf(t, in.rest), 7, false)...)
				}
				return bytes.NewReader(stream)
			}
			name := in.name + "/" + format
			wantErr := in.textErr
			if format == "wire" && in.wireErr != "" {
				wantErr = in.wireErr
			}
			sopts := StreamOptions{Workers: 2, MinSegmentOps: 1, Horizon: 3}
			var got strings.Builder
			pinStats := func(fn string, st StreamStats, err error) {
				fmt.Fprintf(&got, "%s: ops=%d keys=%d segs=%d merges=%d stale=%d sat=%d\n",
					fn, st.Ops, st.Keys, st.Segments, st.Merges, st.StaleReads, st.SaturatedKeys)
				if msg := fmt.Sprint(err); msg != wantErr && !(err == nil && wantErr == "") {
					t.Errorf("%s: %s: error %q, want %q", name, fn, msg, wantErr)
				}
			}

			rep, st, err := StreamCheck(open(), 2, core.Options{}, sopts)
			pinStats("check", st, err)
			for _, kr := range rep.Keys {
				fmt.Fprintf(&got, "  %s ops=%d atomic=%v err=%v\n", kr.Key, kr.Ops, kr.Atomic, kr.Err != nil)
			}

			ks, st, err := StreamSmallestKByKey(open(), core.Options{}, sopts)
			pinStats("smallest", st, err)
			keys := make([]string, 0, len(ks))
			for key := range ks {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				fmt.Fprintf(&got, "  %s k=%d\n", key, ks[key])
			}

			sopts.Properties = PropertySetAll
			kvs, st, err := StreamVerdictsByKey(open(), core.Options{}, sopts)
			pinStats("verdicts", st, err)
			for _, kv := range kvs {
				fmt.Fprintf(&got, "  %s ops=%d pending=%d atomic=%v k=%d sat=%v delta=%d dsat=%v unsafe=%d irregular=%d err=%v\n",
					kv.Key, kv.Ops, kv.PendingOps, kv.Atomic, kv.SmallestK, kv.Saturated,
					kv.SmallestDelta, kv.DeltaSaturated, kv.UnsafeReads, kv.IrregularReads, kv.Err != nil)
			}

			if want := pinnedReaderDriven[in.name]; got.String() != want {
				t.Errorf("%s: got\n%s\nwant\n%s", name, got.String(), want)
			}
		}
	}
}

// pinnedReaderDriven is TestReaderDrivenPinned's expectation per input, the
// same for the text and the wire rendering.
var pinnedReaderDriven = map[string]string{
	"clean": `check: ops=171 keys=4 segs=86 merges=80 stale=5 sat=0
  a ops=48 atomic=false err=false
  b ops=72 atomic=true err=false
  c ops=25 atomic=false err=true
  d ops=26 atomic=true err=false
smallest: ops=171 keys=4 segs=78 merges=92 stale=1 sat=1
  a k=20
  b k=2
  c k=0
  d k=1
verdicts: ops=171 keys=4 segs=78 merges=92 stale=1 sat=1
  a ops=48 pending=0 atomic=true k=20 sat=true delta=1805 dsat=true unsafe=5 irregular=5 err=false
  b ops=72 pending=0 atomic=true k=2 sat=false delta=10 dsat=false unsafe=24 irregular=24 err=false
  c ops=25 pending=0 atomic=false k=0 sat=false delta=0 dsat=false unsafe=0 irregular=0 err=true
  d ops=26 pending=0 atomic=true k=1 sat=false delta=0 dsat=false unsafe=0 irregular=0 err=false
`,
	"parse": `check: ops=55 keys=3 segs=21 merges=23 stale=1 sat=0
  a ops=18 atomic=false err=false
  b ops=27 atomic=true err=false
  c ops=10 atomic=true err=false
smallest: ops=55 keys=3 segs=16 merges=26 stale=0 sat=0
  a k=3
  b k=2
  c k=1
verdicts: ops=55 keys=3 segs=16 merges=26 stale=0 sat=0
  a ops=18 pending=6 atomic=true k=3 sat=false delta=105 dsat=false unsafe=1 irregular=1 err=false
  b ops=27 pending=6 atomic=true k=2 sat=false delta=10 dsat=false unsafe=7 irregular=7 err=false
  c ops=10 pending=5 atomic=true k=1 sat=false delta=0 dsat=false unsafe=0 irregular=0 err=false
`,
	"order": `check: ops=56 keys=3 segs=21 merges=23 stale=1 sat=0
  a ops=19 atomic=false err=false
  b ops=27 atomic=true err=false
  c ops=10 atomic=true err=false
smallest: ops=56 keys=3 segs=16 merges=26 stale=0 sat=0
  a k=3
  b k=2
  c k=1
verdicts: ops=56 keys=3 segs=16 merges=26 stale=0 sat=0
  a ops=19 pending=6 atomic=true k=3 sat=false delta=105 dsat=false unsafe=1 irregular=1 err=false
  b ops=27 pending=6 atomic=true k=2 sat=false delta=10 dsat=false unsafe=7 irregular=7 err=false
  c ops=10 pending=5 atomic=true k=1 sat=false delta=0 dsat=false unsafe=0 irregular=0 err=false
`,
}
