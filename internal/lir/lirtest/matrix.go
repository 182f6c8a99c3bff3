// Package lirtest holds a matrix of pipelines from the §3.5 optimization
// space that lir's compile-identity test pins and tv's tests replay, so both
// run over one list.
package lirtest

import (
	"fmt"
	"math/rand"

	"replayopt/internal/ga"
	"replayopt/internal/lir"
)

// Config is one labelled pipeline of the matrix.
type Config struct {
	Label  string
	Config lir.Config
}

// Matrix lists the three presets; every registered pass appended to O1 at
// its defaults, with every parameter at its maximum, and (for passes with
// several parameters) with each parameter alone at its maximum; and sixteen
// seeded random genomes drawn the way the GA's first generation draws them.
func Matrix() []Config {
	out := []Config{{"O1", lir.O1()}, {"O2", lir.O2()}, {"O3", lir.O3()}}
	withPass := func(label string, spec lir.PassSpec) {
		cfg := lir.O1()
		cfg.Passes = append(cfg.Passes, spec)
		out = append(out, Config{label, cfg})
	}
	for _, name := range lir.PassNames() {
		info, _ := lir.PassByName(name)
		withPass("O1+"+name, lir.PassSpec{Name: name})
		if len(info.Params) == 0 {
			continue
		}
		all := map[string]int{}
		for _, ps := range info.Params {
			all[ps.Name] = ps.Max
		}
		withPass("O1+"+name+"(max)", lir.PassSpec{Name: name, Params: all})
		if len(info.Params) == 1 {
			continue
		}
		for _, ps := range info.Params {
			withPass(fmt.Sprintf("O1+%s(%s=%d)", name, ps.Name, ps.Max),
				lir.PassSpec{Name: name, Params: map[string]int{ps.Name: ps.Max}})
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		g := ga.RandomGenome(rand.New(rand.NewSource(seed)), ga.DefaultOptions())
		out = append(out, Config{fmt.Sprintf("genome%d", seed), g.Decode()})
	}
	return out
}
