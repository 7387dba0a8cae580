package surface

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// readProse returns a Markdown file's lines with fenced code blocks, the
// fences included, blanked: the doc checks read prose only.
func readProse(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	fenced := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence || fenced {
			lines[i] = ""
		}
		if fence {
			fenced = !fenced
		}
	}
	return lines, nil
}

// A title is a heading or a bold lead of a Markdown document, with the
// line it starts on.
type title struct {
	text string
	line int
}

var (
	heading  = regexp.MustCompile(`^#{1,6}\s+(.*?)[\s#]*$`)
	boldLead = regexp.MustCompile(`^\s*(?:[-*+]\s+|\d+\.\s+)?\*\*`)
)

// titles lists the headings and bold leads of a document's prose lines. A
// bold lead is the bold text that opens a paragraph or a list item; it may
// wrap, and runs to its closing ** or to the end of its paragraph.
func titles(lines []string) []title {
	var out []title
	for i, l := range lines {
		if sm := heading.FindStringSubmatch(l); sm != nil {
			out = append(out, title{sm[1], i + 1})
			continue
		}
		loc := boldLead.FindStringIndex(l)
		if loc == nil {
			continue
		}
		text := l[loc[1]:]
		for j := i + 1; !strings.Contains(text, "**") && j < len(lines) && strings.TrimSpace(lines[j]) != ""; j++ {
			text += " " + lines[j]
		}
		text, _, _ = strings.Cut(text, "**")
		out = append(out, title{oneLine(text), i + 1})
	}
	return out
}

// oneLine joins wrapped text: its whitespace runs become one space.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// fold is text as titles and references are compared: without backticks
// or asterisks, in lower case, on one line.
func fold(s string) string {
	return strings.ToLower(oneLine(strings.NewReplacer("`", "", "*", "").Replace(s)))
}

// sectionRef finds a section reference: a Markdown file's name, then a
// comma, an opening parenthesis or nothing, then the section in double
// quotes, which may wrap.
var sectionRef = regexp.MustCompile(`([\w./-]+\.md)(?:,|\s*\()?\s*"([^"]{1,200})"`)

// unresolvedSections lists the section references of a document's prose
// lines that begin no title of the file they name (from the module root),
// ignoring case and line wrapping; a file that does not exist has no
// titles. cache holds each named file's titles.
func (m *module) unresolvedSections(doc string, lines []string, cache map[string][]title) ([]finding, error) {
	text := strings.Join(lines, "\n")
	var out []finding
	for _, loc := range sectionRef.FindAllStringSubmatchIndex(text, -1) {
		file, ref := text[loc[2]:loc[3]], text[loc[4]:loc[5]]
		ts, ok := cache[file]
		if !ok {
			prose, err := readProse(filepath.Join(m.root, file))
			if err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			ts = titles(prose)
			cache[file] = ts
		}
		if !slices.ContainsFunc(ts, func(t title) bool { return strings.HasPrefix(fold(t.text), fold(ref)) }) {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			out = append(out, finding{catDoc, fmt.Sprintf("%s, %q", file, oneLine(ref)), token.Position{Filename: doc, Line: line}})
		}
	}
	return out, nil
}

// noTitle fails every heading and bold lead of the Markdown files
// (module-relative) that re matches.
func noTitle(re string, files ...string) func(*module) []string {
	r := regexp.MustCompile(re)
	return func(m *module) []string {
		var out []string
		for _, f := range files {
			lines, err := readProse(filepath.Join(m.root, f))
			if err != nil {
				return []string{err.Error()}
			}
			for _, t := range titles(lines) {
				if r.MatchString(t.text) {
					out = append(out, fmt.Sprintf("%s:%d: %q", f, t.line, t.text))
				}
			}
		}
		return out
	}
}
