package report_test

import (
	"strings"
	"testing"

	"github.com/pardon-feddg/pardon/internal/report"
)

func TestRenderAligned(t *testing.T) {
	tb := &report.Table{Title: "T", Header: []string{"A", "BB"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	out := tb.Render()
	if !strings.Contains(out, "T\n=") {
		t.Fatalf("missing title underline:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var header, row1 string
	for i, l := range lines {
		if strings.HasPrefix(l, "A") {
			header = l
			row1 = lines[i+2]
			break
		}
	}
	if strings.Index(header, "BB") != strings.Index(row1+" ", "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestRenderNotes(t *testing.T) {
	tb := &report.Table{Header: []string{"A"}, Notes: []string{"hello"}}
	tb.AddRow("x")
	if !strings.Contains(tb.Render(), "note: hello") {
		t.Fatal("note missing")
	}
}

func TestAddRowPadsShortRows(t *testing.T) {
	tb := &report.Table{Header: []string{"A", "B", "C"}}
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tb.Rows[0])
	}
}

func TestFormatters(t *testing.T) {
	if got := report.Pct(0.7102); got != "71.02%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := report.Ms(0.0033); got != "3.3ms" {
		t.Fatalf("Ms = %q", got)
	}
}
