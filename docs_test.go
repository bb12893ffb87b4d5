package perfpred

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignLayoutListsEveryDirectory checks that the DESIGN.md §5 tree
// names every directory under cmd/ and internal/, and that every
// directory it names there exists.
func TestDesignLayoutListsEveryDirectory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(doc), "## 5. Repository layout")
	if !ok {
		t.Fatal("DESIGN.md has no §5 Repository layout")
	}
	layout, _, _ = strings.Cut(layout, "\n## ")
	_, tree, ok1 := strings.Cut(layout, "\n  cmd/\n")
	cmdTree, internalTree, ok2 := strings.Cut(tree, "\n  internal/\n")
	internalTree, _, ok3 := strings.Cut(internalTree, "\n  examples/\n")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("DESIGN.md §5 tree lacks its cmd/, internal/ or examples/ heading")
	}
	for _, sub := range []struct{ dir, tree string }{{"cmd", cmdTree}, {"internal", internalTree}} {
		entries, err := os.ReadDir(sub.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !regexp.MustCompile(`(?m)^    `+regexp.QuoteMeta(e.Name())+`/`).MatchString(sub.tree) {
				t.Errorf("DESIGN.md §5 tree is missing %s/%s/", sub.dir, e.Name())
			}
		}
		for _, m := range regexp.MustCompile(`(?m)^    (\S+)/`).FindAllStringSubmatch(sub.tree, -1) {
			if fi, err := os.Stat(filepath.Join(sub.dir, m[1])); err != nil || !fi.IsDir() {
				t.Errorf("DESIGN.md §5 tree names %s/%s/, which does not exist", sub.dir, m[1])
			}
		}
	}
}
