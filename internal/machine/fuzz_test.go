package machine

import (
	"errors"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/prog"
)

// frontEndSeeds are inputs both front-end fuzzers start from besides the
// suite: a truncated function header, a malformed return, and an image
// that outgrows the assemblers' 16 MiB limit.
var frontEndSeeds = []string{"int A(){", "ret r0,0", ".space 16777216\n.space 16777216"}

// typedError reports whether err is one of the front end's diagnostic
// types, which carry the offending source line.
func typedError(err error) bool {
	var ce *cc.CompileError
	var ae *asm.Error
	var al asm.ErrorList
	var xe *cisc.AsmError
	var xl cisc.AsmErrorList
	return errors.As(err, &ce) || errors.As(err, &ae) || errors.As(err, &al) ||
		errors.As(err, &xe) || errors.As(err, &xl)
}

// checkImage requires exactly one of an image and a typed error.
func checkImage(t *testing.T, what string, img *Image, err error) {
	t.Helper()
	switch {
	case err == nil && img == nil:
		t.Fatalf("%s: neither an image nor an error", what)
	case err != nil && img != nil:
		t.Fatalf("%s: both an image and error %v", what, err)
	case err != nil && !typedError(err):
		t.Fatalf("%s: untyped error %T: %v", what, err, err)
	}
}

// FuzzCompileCm compiles arbitrary Cm source with all three back ends and
// assembles the result (Compile, wide-data retry included): every input
// must yield an image or a typed diagnostic, never a panic.
func FuzzCompileCm(f *testing.F) {
	for _, b := range prog.All() {
		f.Add(b.Source)
	}
	for _, s := range frontEndSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, target := range []cc.Target{cc.RISCWindowed, cc.RISCFlat, cc.CISC} {
			img, _, err := Compile(src, cc.Options{Target: target})
			checkImage(t, target.String(), img, err)
		}
	})
}

// FuzzAssemble feeds arbitrary text to the RISC I and CX assemblers: every
// input must yield an image or a typed diagnostic, never a panic. It starts
// from the suite compiled for both machines.
func FuzzAssemble(f *testing.F) {
	for _, b := range prog.All() {
		for _, target := range []cc.Target{cc.RISCWindowed, cc.CISC} {
			res, err := cc.Compile(b.Source, cc.Options{Target: target})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(res.Asm)
		}
	}
	for _, s := range frontEndSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, target := range []cc.Target{cc.RISCWindowed, cc.CISC} {
			img, err := Assemble(src, target)
			checkImage(t, target.String(), img, err)
		}
	})
}
