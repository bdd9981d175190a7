package powerstruggle

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// citeRE matches a section citation of a doc under docs/: in prose
// (docs/<doc>.md §6), after a markdown link to the doc, or in the
// quoted form this test refuses (docs/<doc>.md "Heading"). The cited
// text runs to the first closing punctuation.
var citeRE = regexp.MustCompile("docs/([A-Z][A-Z_]*\\.md)`?(?:\\]\\(docs/[A-Z_]+\\.md\\))?,?\\s+(?:§([^)\\],;:.\"`]+)|\"([^\"]+)\")")

// commentJoin folds a line break inside a Go comment into one space, so
// a citation wrapped across comment lines reads as one.
var commentJoin = regexp.MustCompile(`\n\s*//\s*`)

// TestDocCitationsResolve holds every docs/<doc>.md §<heading> citation in
// the Go sources, README.md and DESIGN.md to a heading of that file
// that starts with the cited text (§6 matches "## 6. …").
func TestDocCitationsResolve(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "DESIGN.md")

	headings := map[string][]string{}
	cites := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if strings.HasSuffix(f, ".go") {
			text = commentJoin.ReplaceAllString(text, " ")
		} else {
			text = strings.ReplaceAll(text, "\n", " ")
		}
		for _, m := range citeRE.FindAllStringSubmatch(text, -1) {
			doc, sec := m[1], strings.TrimSpace(m[2])
			if m[3] != "" {
				t.Errorf("%s: quoted citation docs/%s %q: write docs/%s §%s", f, doc, m[3], doc, m[3])
				continue
			}
			hs, ok := headings[doc]
			if !ok {
				hs = docHeadings(t, doc)
				headings[doc] = hs
			}
			if !hasHeading(hs, sec) {
				t.Errorf("%s: docs/%s §%s: no heading starts with %q", f, doc, sec, sec)
			}
			cites++
		}
	}
	if cites == 0 {
		t.Fatal("no doc citations found; the pattern no longer matches the sources")
	}
}

// docHeadings lists the markdown headings of docs/<name>, without their
// leading hashes.
func docHeadings(t *testing.T, name string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("docs", name))
	if err != nil {
		t.Fatalf("cited doc: %v", err)
	}
	var hs []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "#") {
			hs = append(hs, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return hs
}

// hasHeading reports whether a heading starts with sec and the match
// ends at a word boundary, so §1 does not resolve to "10. …".
func hasHeading(hs []string, sec string) bool {
	for _, h := range hs {
		if rest, ok := strings.CutPrefix(h, sec); ok {
			if rest == "" || !unicode.IsLetter(rune(rest[0])) && !unicode.IsDigit(rune(rest[0])) {
				return true
			}
		}
	}
	return false
}
