package machine

import (
	"encoding/json"
	"os"

	"risc1/internal/core"
)

// WriteProfile writes a run's execution-heat profile — its block leaders,
// dynamic opcode n-grams and trace-tier counters — as the JSON document
// behind riscrun's and riscbench's -profile flags, to path or, for "-", to
// stdout. engine is the engine the run asked for.
func WriteProfile(path string, engine core.Engine, info *Info) error {
	dump := struct {
		Schema             string         `json:"schema"`
		Engine             string         `json:"engine"`
		TracesCompiled     uint64         `json:"traces_compiled"`
		TraceSideExits     uint64         `json:"trace_side_exits"`
		TraceInvalidations uint64         `json:"trace_invalidations"`
		TraceInstructions  uint64         `json:"trace_instructions"`
		HotBlocks          int            `json:"hot_blocks"`
		Blocks             []BlockProfile `json:"blocks"`
		NGrams             []NGramCount   `json:"ngrams"`
	}{
		Schema:             "risc1-profile/1",
		Engine:             engine.String(),
		TracesCompiled:     info.TracesCompiled,
		TraceSideExits:     info.TraceSideExits,
		TraceInvalidations: info.TraceInvalidations,
		TraceInstructions:  info.TraceInstructions,
		HotBlocks:          info.HotBlocks,
		Blocks:             info.Profile,
		NGrams:             info.NGrams,
	}
	out, err := json.MarshalIndent(&dump, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
