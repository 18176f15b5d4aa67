package bpi_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDesignListsEveryPackage checks DESIGN.md §2 against the module: each
// directory that holds non-test Go must have a line of the inventory, and
// each directory the inventory names must exist. testdata/ directories,
// directories Go ignores (a leading "." or "_") and perfbench/, which is a
// module of its own, are not walked; the root is the facade's line.
func TestDesignListsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	_, block, _ := strings.Cut(sec, "```\n")
	block, _, _ = strings.Cut(block, "```")
	listed := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		// An entry is indented by two spaces; its continuations by more.
		if rest, ok := strings.CutPrefix(line, "  "); ok && rest != "" && rest[0] != ' ' {
			if dir, _, _ := strings.Cut(rest, " "); strings.Contains(dir, "/") {
				listed[dir] = true
			}
		}
	}
	if len(listed) == 0 {
		t.Fatal("DESIGN.md §2 lists no directory")
	}

	var found []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || name == "perfbench" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir != "." && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !slices.Contains(found, dir) {
			found = append(found, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range found {
		if !listed[dir] {
			t.Errorf("DESIGN.md §2 omits %s", dir)
		}
	}
	for dir := range listed {
		if !slices.Contains(found, dir) {
			t.Errorf("DESIGN.md §2 names %s, which holds no non-test Go", dir)
		}
	}
}
