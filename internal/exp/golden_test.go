package exp

import (
	"os"
	"strings"
	"testing"
)

// TestTablesGolden renders every experiment through one lab, exactly as
// cmd/riscbench prints its report, and compares the text against
// testdata/tables.golden. The tables are deterministic simulated quantities,
// so any difference is a change in what some machine computes or how it is
// measured. riscbench's "[.. regenerated in ..]" timing lines are not part
// of the report compared here. The golden file is regenerated only for an
// intended change in the tables:
//
//	go run ./cmd/riscbench | grep -v '^\[' > internal/exp/testdata/tables.golden
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders all twelve experiments")
	}
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLab()
	var got strings.Builder
	for _, id := range IDs() {
		out, err := Render(lab, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got.WriteString(out + "\n\n")
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report differs from testdata/tables.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
