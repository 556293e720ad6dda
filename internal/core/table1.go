package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// Table1Row is the Table I analog: how much of the TCP/IP library had
// to change to carry capabilities.
type Table1Row struct {
	Library    string
	CapLines   int     // lines carrying capability-integration code
	TotalLines int     // library size
	Percent    float64 // CapLines / TotalLines
	PaperLines int     // the paper's count (152 for F-Stack)
	PaperPct   float64 // the paper's percentage (0.99)
}

// String renders the row.
func (r Table1Row) String() string {
	return fmt.Sprintf("%-8s %5d / %6d LoC = %.2f%%  (paper: %d = %.2f%%)",
		r.Library, r.CapLines, r.TotalLines, r.Percent, r.PaperLines, r.PaperPct)
}

// capLinePattern matches the capability-integration idioms of this
// port: capability types and the checked-access entry points (the Go
// equivalents of the `__capability` qualifiers and the modified API
// signatures of §III-B).
var capLinePattern = regexp.MustCompile(
	`cheri\.(Cap|TMem)|WriteCap|ReadCap|CheckedSlice|CapMode|capMode|stageCap|DeriveBuf`)

// fstackDir locates the fstack sources relative to this file.
func fstackDir() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("core: cannot locate sources")
	}
	return filepath.Join(filepath.Dir(file), "..", "fstack"), nil
}

// RunTable1 counts the capability-integration lines in the fstack
// package the way Table I counts the modified lines of the F-Stack
// port. Test files are excluded, as the paper counts library code.
func RunTable1() (Table1Row, error) {
	dir, err := fstackDir()
	if err != nil {
		return Table1Row{}, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Library: "F-Stack", PaperLines: 152, PaperPct: 0.99}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return Table1Row{}, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			row.TotalLines++
			if capLinePattern.MatchString(line) {
				row.CapLines++
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return Table1Row{}, err
		}
		f.Close()
	}
	if row.TotalLines > 0 {
		row.Percent = 100 * float64(row.CapLines) / float64(row.TotalLines)
	}
	return row, nil
}
