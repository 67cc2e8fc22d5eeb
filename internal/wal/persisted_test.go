package wal

import "testing"

// The record framing every log file and checkpoint file holds, as literals:
// changing one of these is a format change recovery cannot follow, not a
// refactor.
const (
	persistedHeaderSize       = 9 // crc32c, length, record type
	persistedRecordBatch      = 1
	persistedRecordCkptHeader = 2
	persistedRecordCkptKey    = 3
	persistedRecordCkptFooter = 4
	// Recovery finds a data directory's logs by this name shape.
	persistedFileName = "wal-ep00000003-s0012.log" // epoch 3, shard 12
)

func TestPersistedConstants(t *testing.T) {
	if headerSize != persistedHeaderSize {
		t.Errorf("headerSize = %d, want %d", headerSize, persistedHeaderSize)
	}
	for _, c := range []struct {
		name      string
		got, want byte
	}{
		{"RecordBatch", RecordBatch, persistedRecordBatch},
		{"RecordCkptHeader", RecordCkptHeader, persistedRecordCkptHeader},
		{"RecordCkptKey", RecordCkptKey, persistedRecordCkptKey},
		{"RecordCkptFooter", RecordCkptFooter, persistedRecordCkptFooter},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got := FileName(3, 12); got != persistedFileName {
		t.Errorf("FileName(3, 12) = %q, want %q", got, persistedFileName)
	}
	if e, s, ok := ParseFileName(persistedFileName); !ok || e != 3 || s != 12 {
		t.Errorf("ParseFileName(%q) = %d, %d, %v; want 3, 12, true", persistedFileName, e, s, ok)
	}
}
