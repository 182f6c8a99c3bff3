package core

import (
	"testing"

	"replayopt/internal/minic"
	"replayopt/internal/profile"
)

// The effect analysis may only grow the region the paper's §3.1 boolean
// blocklist selects. Both analyses run over the same online profile: the
// blocklist is the differential reference, prepare's analysis the subject.
func TestLegacyBlocklistParity(t *testing.T) {
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := New(smallOptions()).Prepare(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	legacy := profile.AnalyzeBlocklist(prog)
	legacyRegion, ok := profile.HotRegion(prog, legacy, eff.Profile)
	if !ok {
		t.Fatal("blocklist found no replayable hot region")
	}

	// Sound-precision direction: every method the blocklist deems deep-
	// replayable must stay deep-replayable under the effect analysis.
	for id := range prog.Methods {
		if legacy.ReplayableDeep[id] && !eff.Analysis.ReplayableDeep[id] {
			t.Errorf("%s: blocklist accepts, effect analysis rejects",
				prog.Methods[id].Name)
		}
	}
	// The selected region may differ in two sound ways only: it can grow
	// (more methods replayable) or drop methods the RTA call graph proves
	// unreachable (virtual targets on never-instantiated classes, which the
	// blocklist's prog.Callees over-approximation keeps).
	effMethods := map[int]bool{}
	for _, m := range eff.Region.Methods {
		effMethods[int(m)] = true
	}
	if legacyRegion.Root == eff.Region.Root {
		for _, m := range legacyRegion.Methods {
			if !effMethods[int(m)] && eff.Analysis.Effects.Graph.Reachable[m] {
				t.Errorf("RTA-reachable method %s in blocklist region but not effect region",
					prog.Methods[m].Name)
			}
		}
	}
}
