package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"kat/internal/history"
)

// randOps builds a batch of canonical operations (the form the text grammar
// round-trips: weight 0 or >1, any client) over nkeys keys.
func randOps(rng *rand.Rand, n, nkeys int) []Op {
	ops := make([]Op, n)
	start := int64(rng.Intn(1000))
	for i := range ops {
		kind := history.KindWrite
		if rng.Intn(2) == 1 {
			kind = history.KindRead
		}
		op := history.Operation{
			Kind:   kind,
			Value:  int64(rng.Intn(2000) - 1000),
			Start:  start,
			Finish: start + 1 + int64(rng.Intn(50)),
		}
		if rng.Intn(4) == 0 {
			op.Weight = int64(2 + rng.Intn(9))
		}
		if rng.Intn(3) == 0 {
			op.Client = rng.Intn(64) - 16
		}
		ops[i] = Op{Key: keyName(rng.Intn(nkeys)), Op: op}
		// Starts wander in both directions so delta encoding sees negatives.
		start += int64(rng.Intn(21) - 7)
	}
	return ops
}

func keyName(i int) string {
	return "key-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10))
}

func decodeAll(t *testing.T, data []byte) []Op {
	t.Helper()
	d := NewDecoder(bytes.NewReader(data))
	var out []Op
	for {
		ops, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ops...)
	}
}

func sameOps(t *testing.T, want, got []Op) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		w.Op.ID, g.Op.ID = 0, 0 // IDs are not carried by the frame
		if w != g {
			t.Fatalf("op %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 512, 3000} {
		ops := randOps(rng, n, 7)
		frame, err := EncodeSelfContained(nil, ops, false)
		if err != nil {
			t.Fatalf("encode %d ops: %v", n, err)
		}
		sameOps(t, ops, decodeAll(t, frame))
	}
}

func TestRoundTripCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := randOps(rng, 1024, 3)
	plain, err := EncodeSelfContained(nil, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodeSelfContained(nil, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compressed frame (%d bytes) not smaller than plain (%d bytes)", len(packed), len(plain))
	}
	sameOps(t, ops, decodeAll(t, packed))
}

// TestMultiFrameDictionary checks that a stream's later frames reuse the
// dictionary instead of re-listing keys, and still decode identically.
func TestMultiFrameDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := randOps(rng, 600, 5)
	enc := NewEncoder()
	var stream []byte
	frameSizes := make([]int, 0, 3)
	for i, kop := range ops {
		if err := enc.Add(kop.Key, kop.Op); err != nil {
			t.Fatal(err)
		}
		if (i+1)%200 == 0 {
			before := len(stream)
			stream = enc.AppendFrame(stream)
			frameSizes = append(frameSizes, len(stream)-before)
		}
	}
	sameOps(t, ops, decodeAll(t, stream))
	// All keys appear in the first 200 ops with overwhelming probability,
	// so later frames should be leaner per op than a self-contained run.
	self, err := EncodeSelfContained(nil, ops[200:400], false)
	if err != nil {
		t.Fatal(err)
	}
	if frameSizes[1] >= len(self) {
		t.Fatalf("dictionary frame (%d bytes) not smaller than self-contained frame (%d bytes)", frameSizes[1], len(self))
	}
}

func TestSelfContainedFramesDecodeAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops := randOps(rng, 100, 4)
	enc := NewEncoder()
	enc.SetSelfContained(true)
	var frames [][]byte
	for i, kop := range ops {
		if err := enc.Add(kop.Key, kop.Op); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			frames = append(frames, enc.AppendFrame(nil))
		}
	}
	// Decode each frame with a fresh decoder — the WAL replay pattern.
	var got []Op
	for _, f := range frames {
		d := NewDecoder(bytes.NewReader(f))
		for {
			ops, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("self-contained frame: %v", err)
			}
			for _, kop := range ops {
				got = append(got, kop)
			}
		}
	}
	sameOps(t, ops, got)
}

func TestEncoderReuseAcrossStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc := NewEncoder()
	for trial := 0; trial < 3; trial++ {
		enc.Reset()
		ops := randOps(rng, 64, 3)
		for _, kop := range ops {
			if err := enc.Add(kop.Key, kop.Op); err != nil {
				t.Fatal(err)
			}
		}
		sameOps(t, ops, decodeAll(t, enc.AppendFrame(nil)))
	}
}

func TestDecoderReset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randOps(rng, 32, 2)
	b := randOps(rng, 32, 2)
	fa, _ := EncodeSelfContained(nil, a, false)
	fb, _ := EncodeSelfContained(nil, b, false)
	d := NewDecoder(bytes.NewReader(fa))
	got, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, a, got)
	d.Reset(bytes.NewReader(fb))
	if d.Offset() != 0 {
		t.Fatalf("offset after Reset = %d, want 0", d.Offset())
	}
	got, err = d.Next()
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, b, got)
}

func TestEncoderRejectsBadKeys(t *testing.T) {
	enc := NewEncoder()
	op := history.Operation{Kind: history.KindWrite, Value: 1, Start: 1, Finish: 2}
	for _, key := range []string{"", "a b", "x;y", "x#y", "a\nb", "a\tb"} {
		if err := enc.Add(key, op); err == nil {
			t.Fatalf("Add(%q) accepted a key outside the trace grammar", key)
		}
	}
	if err := enc.Add("ok", history.Operation{Kind: 0}); err == nil {
		t.Fatal("Add accepted an invalid operation kind")
	}
}

// corrupt variants: every mutation must surface as a *DecodeError with a
// plausible offset, never a panic or a silent wrong decode.
func TestMalformedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ops := randOps(rng, 64, 3)
	frame, err := EncodeSelfContained(nil, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	expectErr := func(name string, data []byte, wantSub string) {
		t.Helper()
		d := NewDecoder(bytes.NewReader(data))
		_, err := d.Next()
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: got %v, want *DecodeError", name, err)
		}
		if de.Offset < 0 || de.Offset > int64(len(data))+1 {
			t.Fatalf("%s: offset %d outside the stream", name, de.Offset)
		}
		if wantSub != "" && !strings.Contains(de.Msg, wantSub) {
			t.Fatalf("%s: message %q does not mention %q", name, de.Msg, wantSub)
		}
	}

	for cut := 1; cut < len(frame); cut++ {
		expectErr("torn frame", frame[:cut], "")
	}
	bad := bytes.Clone(frame)
	bad[0] = 'X'
	expectErr("bad magic", bad, "bad magic")

	bad = bytes.Clone(frame)
	bad[4] = 99
	expectErr("bad version", bad, "unsupported frame version")

	bad = bytes.Clone(frame)
	bad[5] |= 0x80
	expectErr("unknown flags", bad, "unknown frame flags")

	// Flip one payload byte: the CRC must catch it.
	bad = bytes.Clone(frame)
	bad[len(bad)/2] ^= 0x20
	expectErr("payload flip", bad, "")

	// Flip a CRC byte.
	bad = bytes.Clone(frame)
	bad[len(bad)-1] ^= 0xff
	expectErr("crc flip", bad, "checksum mismatch")

	// Garbage after a valid frame is a malformed second frame, not EOF.
	withTrailer := append(bytes.Clone(frame), "w k 1 2 3\n"...)
	d := NewDecoder(bytes.NewReader(withTrailer))
	if _, err := d.Next(); err != nil {
		t.Fatalf("valid first frame: %v", err)
	}
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("trailing garbage: got %v, want DecodeError", err)
	}
}

func TestMalformedPayloads(t *testing.T) {
	// Hand-build payloads around a frame skeleton to hit the payload-level
	// validations the CRC cannot (the CRC is recomputed over each).
	build := func(payload []byte) []byte {
		enc := NewEncoder()
		_ = enc.Add("k", history.Operation{Kind: history.KindWrite, Value: 1, Start: 1, Finish: 2})
		frame := enc.AppendFrame(nil)
		// Splice: keep the 6-byte header shape but re-emit length+payload+crc.
		out := bytes.Clone(frame[:6])
		out = appendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		return appendCRC(out, payload)
	}
	cases := []struct {
		name    string
		payload []byte
		wantSub string
	}{
		{"empty payload", nil, "truncated dictionary count"},
		{"huge dict count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, "exceeds payload size"},
		{"key overrun", []byte{1, 10, 'k'}, "overrun"},
		{"bad key alphabet", []byte{1, 3, 'a', ' ', 'b', 0}, "not expressible"},
		{"huge op count", []byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f}, "exceeds payload size"},
		{"key id out of range", []byte{0, 1, 1 << 3, 2, 2, 2}, "outside"},
		{"truncated op", []byte{1, 1, 'k', 1, 0}, "truncated operation"},
		{"trailing bytes", []byte{1, 1, 'k', 1, 0, 2, 2, 2, 9, 9}, "trailing bytes"},
	}
	for _, tc := range cases {
		d := NewDecoder(bytes.NewReader(build(tc.payload)))
		_, err := d.Next()
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: got %v, want *DecodeError", tc.name, err)
		}
		if !strings.Contains(de.Msg, tc.wantSub) {
			t.Fatalf("%s: message %q does not mention %q", tc.name, de.Msg, tc.wantSub)
		}
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendCRC(frame, payload []byte) []byte {
	c := crc32.Checksum(payload, castagnoli)
	return append(frame, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

func TestIsMagic(t *testing.T) {
	if !IsMagic([]byte("KAVWxx")) {
		t.Fatal("IsMagic rejected a frame prefix")
	}
	for _, s := range []string{"", "K", "KAV", "KAVX", "w k 1 2 3", "# comment"} {
		if IsMagic([]byte(s)) {
			t.Fatalf("IsMagic accepted %q", s)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// TestAddIDMatchesAdd checks the by-id door: every subset of a decoded
// frame's operations, re-encoded self-contained through ListKey and AddID
// (keys named by ids the caller holds for one frame, a key listed at its
// first operation), is byte for byte the frame Add makes from the same
// operations — across source frames that keep the dictionary, so a source
// id outlives the frame that listed it while the caller's ids do not.
func TestAddIDMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := NewEncoder()
	var stream []byte
	for f := 0; f < 6; f++ {
		for _, op := range randOps(rng, 40, 30) {
			if err := src.Add(op.Key, op.Op); err != nil {
				t.Fatal(err)
			}
		}
		stream = src.AppendFrame(stream)
	}
	d := NewDecoder(bytes.NewReader(stream))
	byID, byKey := NewEncoder(), NewEncoder()
	byID.SetSelfContained(true)
	byKey.SetSelfContained(true)
	for {
		f, err := d.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for part := 0; part < 3; part++ {
			ids := map[uint32]uint32{} // source id -> id in the frame being built
			for i := part; i < len(f.Ops); i += 3 {
				key := string(f.Key(f.IDs[i]))
				id, ok := ids[f.IDs[i]]
				if !ok {
					if id, err = byID.ListKey(key); err != nil {
						t.Fatal(err)
					}
					ids[f.IDs[i]] = id
				}
				if err := byID.AddID(id, f.Ops[i]); err != nil {
					t.Fatal(err)
				}
				if err := byKey.Add(key, f.Ops[i]); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := byID.AppendFrame(nil), byKey.AppendFrame(nil); !bytes.Equal(got, want) {
				t.Fatalf("AddID frame\n%x\nAdd frame\n%x", got, want)
			}
		}
	}
}
