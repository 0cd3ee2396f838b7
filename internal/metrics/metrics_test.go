package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Results", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta-longer-name", "2", "extra-ignored")
	tbl.AddRow("gamma") // missing cell padded
	out := tbl.Render()
	for _, want := range []string{"Results", "name", "value", "alpha", "beta-longer-name", "gamma"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "extra-ignored") {
		t.Error("extra cells should be dropped")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	if strings.HasPrefix(tbl.Render(), "\n") {
		t.Error("no leading blank line expected when title is empty")
	}
}

func TestFormatters(t *testing.T) {
	if Float(1.005) != "1.00" && Float(1.005) != "1.01" {
		t.Errorf("Float = %q", Float(1.005))
	}
	if Percent(0.8) != "80.0%" {
		t.Errorf("Percent = %q", Percent(0.8))
	}
	if Bits(16) != "16 bits (2.0 bytes)" {
		t.Errorf("Bits = %q", Bits(16))
	}
}
