package skew_test

import (
	"strings"
	"testing"

	"warp/internal/paper"
)

// TestTwoCellTraceFig63 reproduces Figure 6-3 line by line: the two
// cells of the Figure 6-2 program separated by the minimum skew of 3.
func TestTwoCellTraceFig63(t *testing.T) {
	got := paper.TwoCellTrace(paper.Fig62(), 3)
	want := []struct {
		time  int64
		cell1 string
		cell2 string
	}{
		{0, "output_0", ""},
		{1, "input_0", ""},
		{2, "input_1", ""},
		{3, "", "output_0"},
		{4, "", "input_0"},
		{5, "output_1", "input_1"},
		{8, "", "output_1"},
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want)+1, got)
	}
	for i, w := range want {
		line := lines[i+1]
		fields := strings.Fields(line)
		var c1, c2 string
		switch len(fields) {
		case 2:
			// Either cell1 or cell2, disambiguated by column position.
			if strings.Index(line, fields[1]) < 20 {
				c1 = fields[1]
			} else {
				c2 = fields[1]
			}
		case 3:
			c1, c2 = fields[1], fields[2]
		default:
			t.Fatalf("line %d malformed: %q", i, line)
		}
		if fields[0] != itoa(w.time) || c1 != w.cell1 || c2 != w.cell2 {
			t.Errorf("row %d = %q, want time %d cell1 %q cell2 %q", i, line, w.time, w.cell1, w.cell2)
		}
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
