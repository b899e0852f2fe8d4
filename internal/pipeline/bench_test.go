package pipeline

import (
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/prog"
)

// BenchmarkPipelinedSuite measures the pipelined machine's simulation speed
// over the 13 suite kernels under the per-instruction oracle (step) and the
// default engine (auto: compiled blocks priced through the block memo). It
// reports simulated Minstr/s; CI gates the auto/step ratio, which cancels
// out the runner's speed.
func BenchmarkPipelinedSuite(b *testing.B) {
	var imgs []*asm.Image
	for _, k := range prog.All() {
		imgs = append(imgs, compileBench(b, k))
	}
	cfg := core.Config{SaveStackBytes: 64 << 10}
	for _, e := range []core.Engine{core.EngineStep, core.EngineAuto} {
		cfg.Engine = e
		b.Run(e.String(), func(b *testing.B) {
			var instr uint64
			for i := 0; i < b.N; i++ {
				for _, img := range imgs {
					m := New(cfg, PolicyDelayed)
					if err := m.Load(img); err != nil {
						b.Fatal(err)
					}
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
					instr += m.Result().Instructions
				}
			}
			b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
