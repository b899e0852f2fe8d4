package risc1_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"risc1"
	"risc1/internal/prog"
)

// RunImage returns each run's memory to a pool, and the next run of the same
// RAM size starts from it. The tests here check that a reused memory is
// indistinguishable from a fresh one: a kernel's later runs, interleaved with
// runs that leave as much state behind as they can, must report exactly
// what its first run did.

// poolMachine is a target and core count for RunImage.
type poolMachine struct {
	name   string
	target risc1.Target
	cores  int
}

var poolMachines = []poolMachine{
	{"windowed", risc1.RISCWindowed, 0},
	{"flat", risc1.RISCFlat, 0},
	{"cisc", risc1.CISC, 0},
	{"pipelined", risc1.RISCPipelined, 0},
	{"smp4", risc1.RISCWindowed, 4},
}

func mustImage(t *testing.T, src string, target risc1.Target, assembly bool) *risc1.Image {
	t.Helper()
	var img *risc1.Image
	var err error
	if assembly {
		img, err = risc1.AssembleToImage(src, target)
	} else {
		img, err = risc1.CompileToImage(src, target)
	}
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRunImageHammer runs images concurrently on every machine, so pooled
// memories pass between goroutines; under -race it checks the hand-off.
func TestRunImageHammer(t *testing.T) {
	k, _ := prog.ByName("fib")
	type job struct {
		m    poolMachine
		img  *risc1.Image
		want *risc1.RunInfo
	}
	var jobs []job
	for _, m := range poolMachines {
		img := mustImage(t, k.Source, m.target, false)
		want, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: m.cores})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{m, img, want})
	}
	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(w+r)%len(jobs)]
				got, err := risc1.RunImage(context.Background(), j.img, risc1.RunOptions{Cores: j.m.cores})
				if err != nil {
					t.Errorf("%s: %v", j.m.name, err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("%s: concurrent run differs\n got %+v\nwant %+v", j.m.name, got, j.want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkRunImageEmpty measures the fixed cost of one run: building the
// machine, loading an image that returns at once, and tearing down.
func BenchmarkRunImageEmpty(b *testing.B) {
	for _, m := range poolMachines {
		b.Run(m.name, func(b *testing.B) {
			img, err := risc1.CompileToImage("int main() { return 0; }", m.target)
			if err != nil {
				b.Fatal(err)
			}
			opt := risc1.RunOptions{Cores: m.cores}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := risc1.RunImage(context.Background(), img, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
