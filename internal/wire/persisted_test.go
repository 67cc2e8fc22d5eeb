package wire

import (
	"bytes"
	"slices"
	"testing"

	"kat/internal/history"
)

// What a frame puts on the network and into write-ahead records, as literals:
// changing one of these is a format change a deployed reader cannot follow,
// not a refactor.
const (
	persistedMagic          = "KAVW"
	persistedVersion        = 1
	persistedContentType    = "application/x-kav-wire"
	persistedFlagCompressed = 0x01
	persistedFlagDictReset  = 0x02
)

func TestPersistedConstants(t *testing.T) {
	if got := string(magic[:]); got != persistedMagic {
		t.Errorf("magic = %q, want %q", got, persistedMagic)
	}
	if Version != persistedVersion {
		t.Errorf("Version = %d, want %d", Version, persistedVersion)
	}
	if ContentType != persistedContentType {
		t.Errorf("ContentType = %q, want %q", ContentType, persistedContentType)
	}
	if flagCompressed != persistedFlagCompressed {
		t.Errorf("flagCompressed = %#x, want %#x", flagCompressed, persistedFlagCompressed)
	}
	if flagDictReset != persistedFlagDictReset {
		t.Errorf("flagDictReset = %#x, want %#x", flagDictReset, persistedFlagDictReset)
	}
}

// TestSelfContainedFramePinned pins a two-operation self-contained frame byte
// for byte: the header, the dictionary, and each operation's head
// keyID<<3 | kind<<2 | hasWeight<<1 | hasClient followed by its zigzag value,
// start delta and length. A write-ahead record is such a frame, so these bytes
// are on disk.
func TestSelfContainedFramePinned(t *testing.T) {
	ops := []Op{
		{"a", history.Operation{Kind: history.KindWrite, Value: 7, Start: 100, Finish: 110, Weight: 3}},
		{"b", history.Operation{Kind: history.KindRead, Value: -3, Start: 95, Finish: 130, Client: 2}},
	}
	want := []byte{
		'K', 'A', 'V', 'W', 1, 0x02, // magic, version, flags: dictionary reset
		17,                // payload length
		2, 1, 'a', 1, 'b', // two dictionary additions: "a" is id 0, "b" id 1
		2,                       // two operations
		0x02, 14, 200, 1, 20, 3, // id 0, write, weight: value 7, start +100, length 10, weight 3
		0x0d, 5, 9, 70, 4, // id 1, read, client: value -3, start -5, length 35, client 2
		0xe5, 0x27, 0x72, 0xd2, // CRC32C of the payload, little-endian
	}
	got, err := EncodeSelfContained(nil, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame:\n got %#v\nwant %#v", got, want)
	}
	dec, err := NewDecoder(bytes.NewReader(want)).Next()
	if err != nil || !slices.Equal(dec, ops) {
		t.Fatalf("decoded %+v, %v; want %+v", dec, err, ops)
	}
}
