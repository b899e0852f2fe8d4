package machine

import (
	"context"
	"errors"
	"testing"

	"risc1/internal/cc"
	"risc1/internal/prog"
	"risc1/internal/smp"
)

// TestRunEveryMachine runs one kernel on every machine Run can build and
// checks that each fills exactly the sections its machine has.
func TestRunEveryMachine(t *testing.T) {
	b, _ := prog.ByName("fib")
	for _, tc := range []struct {
		name   string
		target cc.Target
		cfg    Config
	}{
		{"windowed", cc.RISCWindowed, Config{}},
		{"flat", cc.RISCFlat, Config{}},
		{"cisc", cc.CISC, Config{}},
		{"pipelined", cc.RISCPipelined, Config{}},
		{"smp", cc.RISCWindowed, Config{Cores: 2}},
		{"race", cc.RISCWindowed, Config{Race: true}},
	} {
		img, _, err := Compile(b.Source, cc.Options{Target: tc.target})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := Run(context.Background(), img, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Console != prog.Expected(b.Name) || r.Instructions == 0 || r.Cycles == 0 {
			t.Errorf("%s: console %q, %d instructions, %d cycles", tc.name, r.Console, r.Instructions, r.Cycles)
		}
		if r.Stats == nil || r.Stats.ByName == nil {
			t.Errorf("%s: no statistics block", tc.name)
		}
		if pipelined := tc.target == cc.RISCPipelined; (r.Timing != nil) != pipelined || (r.Pipeline != nil) != pipelined {
			t.Errorf("%s: pipeline sections present = %v/%v", tc.name, r.Timing != nil, r.Pipeline != nil)
		}
		if shared := tc.cfg.Cores > 1 || tc.cfg.Race; (r.SMP != nil) != shared {
			t.Errorf("%s: SMP section present = %v", tc.name, r.SMP != nil)
		}
	}
}

// TestRunRejectsBadMachines pins the typed configuration errors.
func TestRunRejectsBadMachines(t *testing.T) {
	img, _, err := Compile("int main() { return 0; }", cc.Options{Target: cc.RISCFlat})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  Config
		want error
	}{
		{Config{Cores: -1}, smp.ErrBadCores},
		{Config{Cores: smp.MaxCores + 1}, smp.ErrBadCores},
		{Config{Cores: 2}, smp.ErrWindowedOnly},
		{Config{Race: true}, smp.ErrWindowedOnly},
	} {
		if _, err := Run(context.Background(), img, tc.cfg); !errors.Is(err, tc.want) {
			t.Errorf("%+v: err %v, want %v", tc.cfg, err, tc.want)
		}
	}
}
