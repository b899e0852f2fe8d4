package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
)

// smpExpect is one ";lint: <pass> <severity>" promise from a corpus file.
type smpExpect struct{ pass, sev string }

// readSMPExpects parses the corpus header comments. Cm files carry the
// markers behind "//", assembly files behind ";".
func readSMPExpects(t *testing.T, src string) []smpExpect {
	t.Helper()
	var expects []smpExpect
	sc := bufio.NewScanner(strings.NewReader(src))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimSpace(strings.TrimPrefix(line, "//"))
		if !strings.HasPrefix(line, ";lint:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, ";lint:"))
		if len(f) != 2 {
			t.Fatalf("bad expectation line %q", line)
		}
		expects = append(expects, smpExpect{pass: f[0], sev: f[1]})
	}
	return expects
}

// compileSMPCorpus turns one corpus file into an image: Cm sources go
// through the compiler for the windowed target, assembly straight through
// the assembler.
func compileSMPCorpus(t *testing.T, file, src string) *asm.Image {
	t.Helper()
	text := src
	if strings.HasSuffix(file, ".cm") {
		res, err := cc.Compile(src, cc.Options{Target: cc.RISCWindowed})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		text = res.Asm
	}
	img, err := asm.Assemble(text)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// TestSMPHazardCorpus is the static half of the two-sided contract: every
// file under testdata/smp trips exactly what its ";lint:" header promises —
// each expectation matches at least one diagnostic, every warning-or-worse
// diagnostic is covered by an expectation, and the concurrency passes
// engage on their own (no Options.SMP force) because the programs visibly
// use the SMP runtime or device pages.
func TestSMPHazardCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "smp", "*"))
	if err != nil || len(files) < 10 {
		t.Fatalf("smp hazard corpus too small: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(b)
			expects := readSMPExpects(t, src)
			if len(expects) == 0 {
				t.Fatalf("%s has no ;lint: expectations", file)
			}
			img := compileSMPCorpus(t, file, src)
			diags := Check(img, Options{})
			matched := func(e smpExpect) bool {
				for _, d := range diags {
					if d.Pass == e.pass && d.Severity.String() == e.sev {
						return true
					}
				}
				return false
			}
			for _, e := range expects {
				if !matched(e) {
					t.Errorf("expected a %s %s diagnostic, got %v", e.pass, e.sev, diags)
				}
			}
			for _, d := range diags {
				if d.Severity < SevWarning {
					continue
				}
				covered := false
				for _, e := range expects {
					if d.Pass == e.pass && d.Severity.String() == e.sev {
						covered = true
					}
				}
				if !covered {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, d := range diags {
				if d.Line == 0 {
					t.Errorf("diagnostic lost its source line: %s", d)
				}
			}
		})
	}
}

// TestSMPRaceDiagnosticCmLine pins satellite wiring across three layers:
// the compiler stamps ";@line" markers, the assembler folds them into the
// image's line table, and the analyzer's race report therefore points at
// the Cm statement — not at some line of generated assembly. The racy
// store in race_counter.cm is `counter = counter + k;`.
func TestSMPRaceDiagnosticCmLine(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "smp", "race_counter.cm"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	wantLine := 0
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "counter = counter + k;") {
			wantLine = i + 1
		}
	}
	if wantLine == 0 {
		t.Fatal("race_counter.cm lost its racy statement")
	}
	img := compileSMPCorpus(t, "race_counter.cm", src)
	for _, d := range Check(img, Options{}) {
		if d.Pass == "smp-race" {
			if d.Line != wantLine {
				t.Errorf("race diagnostic at line %d, want Cm line %d: %s", d.Line, wantLine, d)
			}
			return
		}
	}
	t.Fatal("no smp-race diagnostic on race_counter.cm")
}

// TestSMPOptionForcesPasses checks Options.SMP engages the suite on an
// image with no visible SMP operation, and that such an image is still
// clean — the force changes eagerness, not verdicts.
func TestSMPOptionForcesPasses(t *testing.T) {
	img, err := asm.Assemble(`
main:
	li #42,r1
	stl r1,(r0)#-252
	ret r25,#8
	nop
`)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check(img, Options{SMP: true}); len(diags) != 0 {
		t.Errorf("forced SMP passes on a sequential program: %v", diags)
	}
}

// TestSMPPassesOnTruncatedImage lints a return whose delay slot lies past
// the end of the image, so the CFG has an edge outside the node range. The
// SMP passes must skip that edge and leave the report to the sequential
// passes, which flag the transfer in the last code word.
func TestSMPPassesOnTruncatedImage(t *testing.T) {
	img, err := asm.Assemble("ret r0,0")
	if err != nil {
		t.Fatal(err)
	}
	var slot bool
	for _, d := range Check(img, Options{SMP: true}) {
		if d.Pass == "delay-slot" {
			slot = true
		}
	}
	if !slot {
		t.Error("no delay-slot finding for a return in the last code word")
	}
}

// TestSMPCleanParallelSkeleton pins the negative side at this layer: a
// properly locked worker pair produces no concurrency findings.
func TestSMPCleanParallelSkeleton(t *testing.T) {
	const src = `
int g;
void w(int k) {
  int i;
  i = 0;
  while (i < 100) {
    lock(0);
    g = g + k;
    unlock(0);
    i = i + 1;
  }
}
int main() {
  int h1; int h2;
  h1 = spawn(w, 1);
  h2 = spawn(w, 2);
  join(h1);
  join(h2);
  putint(g);
  return 0;
}
`
	img := compileSMPCorpus(t, "clean.cm", src)
	for _, d := range Check(img, Options{}) {
		if d.Severity >= SevWarning {
			t.Errorf("clean locked worker linted dirty: %s", d)
		}
	}
}
