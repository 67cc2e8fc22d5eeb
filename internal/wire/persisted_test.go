package wire

import "testing"

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
