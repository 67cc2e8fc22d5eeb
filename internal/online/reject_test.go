package online

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The reject codes, pinned: a producer switches on these strings, so
// renaming one is a protocol change, not a refactor.
const (
	codeDraining      = "draining"
	codeOverload      = "overload"
	codeQuotaExceeded = "quota_exceeded"
	codeOutOfOrder    = "out_of_order"
	codeDurability    = "durability"
	codeMalformed     = "malformed"
	codeDegraded      = "degraded"
)

// TestRejectTable pins the table's rows against literals, checks the rows
// are coherent with each other, and holds README's "Ingest rejections" table
// to the same rows.
func TestRejectTable(t *testing.T) {
	want := []Reject{
		{Code: codeDraining, Status: 409, Sticky: true, Shed: true},
		{Code: codeOverload, Status: 503, RetryAfter: true, Resend: true, Shed: true},
		{Code: codeQuotaExceeded, Status: 429, Sticky: true, Shed: true},
		{Code: codeOutOfOrder, Status: 409, Sticky: true},
		{Code: codeDurability, Status: 500, Sticky: true},
		{Code: codeMalformed, Status: 400},
		{Code: codeDegraded, Status: 503, RetryAfter: true, Resend: true},
	}
	if len(Rejects) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(Rejects), len(want))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	yesNo := map[bool]string{true: "yes", false: "no"}
	seen := map[string]bool{}
	for i, row := range Rejects {
		if row != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
		id := fmt.Sprintf("%s@%d", row.Code, row.Status)
		if seen[id] {
			t.Errorf("%s: two rows with the same code and status; a client could not tell them apart", id)
		}
		seen[id] = true
		if row.Status < 400 {
			t.Errorf("%s: a reject needs an error status", id)
		}
		if row.Resend && row.Sticky {
			t.Errorf("%s: resend-safe and sticky contradict each other", id)
		}
		if row.Shed && row.Code == codeDegraded {
			t.Errorf("%s: a router reads the body before it can degrade", id)
		}
		if got := RejectFor(row.Code, row.Status); got != row {
			t.Errorf("RejectFor(%s) = %+v, want the row itself", id, got)
		}
		line := fmt.Sprintf("| `%s` | %d | %s | %s | %s |", row.Code, row.Status,
			yesNo[row.RetryAfter], yesNo[row.Resend], yesNo[row.Sticky])
		if !strings.Contains(string(readme), line) {
			t.Errorf("README.md's Ingest rejections table has no row %q", line)
		}
	}
	if got := RejectFor("from_the_future", 418); got.Resend || got.Code != "from_the_future" || got.Status != 418 {
		t.Errorf("an unknown code must read as terminal, got %+v", got)
	}
}

// TestRejectCodesSpelledOnce walks every non-test Go file outside bench/ and
// fails if a string literal spells a reject code — alone, or quoted inside a
// longer literal such as a JSON body or a metrics label — anywhere but
// reject.go. That is what keeps the protocol in one module: a fifth copy of
// a code cannot grow back unnoticed.
func TestRejectCodesSpelledOnce(t *testing.T) {
	// Literals that spell a code for another reason: "draining" and
	// "degraded" are also /healthz words. Each entry excuses one occurrence,
	// so a second literal in the same file — a new Code: "draining" — is
	// still caught.
	allowed := map[string]string{
		"internal/online/server.go: `json:\"draining\"`": "Health.Draining's JSON tag, a /healthz field name",
		"internal/online/server.go: \"draining\"":        "Health.Status once Drain has started",
		"internal/online/tenant.go: \"draining\"":        "the multi-tenant /healthz status once no tenant accepts ingest",
		"internal/cluster/router.go: \"degraded\"":       "RouterHealth.Status while a member's breaker is not closed",
	}
	codes := map[string]bool{}
	for _, row := range Rejects {
		codes[row.Code] = true
	}
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == "internal/online/reject.go" {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			value, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for code := range codes {
				if value != code && !strings.Contains(value, `"`+code+`"`) {
					continue
				}
				if _, ok := allowed[rel+": "+lit.Value]; ok {
					delete(allowed, rel+": "+lit.Value)
					continue
				}
				t.Errorf("%s: literal %s spells reject code %q; use the row in internal/online/reject.go",
					fset.Position(lit.Pos()), lit.Value, code)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for entry, reason := range allowed {
		t.Errorf("allowlist entry %q (%s) matched nothing; delete it", entry, reason)
	}
}
