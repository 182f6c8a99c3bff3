package machine_test

import (
	"fmt"
	"slices"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/profile"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// TestStallTableMatchesDynamicRule checks, for every function the baseline
// compiler and lir O0–O3 produce over every app, that the static stall
// table holds what the executor used to work out at each fall-through
// dispatch: the previous instruction's latency if it writes a register the
// current one reads, else nothing.
func TestStallTableMatchesDynamicRule(t *testing.T) {
	levels := []struct {
		name string
		cfg  lir.Config
	}{{"O0", lir.O0()}, {"O1", lir.O1()}, {"O2", lir.O2()}, {"O3", lir.O3()}}
	fns := 0
	for _, spec := range append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec()) {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		images := map[string]*machine.Program{}
		if images["aot"], err = aot.Compile(app.Prog); err != nil {
			t.Fatalf("%s aot: %v", spec.Name, err)
		}
		static := profile.Analyze(app.Prog).Effects
		vra.Attach(static)
		pts.Attach(static)
		for _, l := range levels {
			if images[l.name], err = lir.Compile(app.Prog, nil, l.cfg, nil, static); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, l.name, err)
			}
		}
		for tier, code := range images {
			for id, fn := range code.Fns {
				fns++
				if err := checkStalls(fn); err != nil {
					t.Errorf("%s %s %s: %v", spec.Name, tier, app.Prog.Methods[id].Name, err)
				}
			}
		}
	}
	if fns == 0 {
		t.Fatal("no functions compiled")
	}
	t.Logf("%d functions checked", fns)
}

func checkStalls(fn *machine.Fn) error {
	stall := fn.StallTable()
	if len(stall) != len(fn.Code) {
		return fmt.Errorf("stall table has %d entries for %d instructions", len(stall), len(fn.Code))
	}
	if len(stall) > 0 && stall[0] != 0 {
		return fmt.Errorf("stall[0] = %d, want 0", stall[0])
	}
	for pc := 1; pc < len(fn.Code); pc++ {
		prev, in := &fn.Code[pc-1], &fn.Code[pc]
		var want uint64
		if d := prev.Writes(); d >= 0 && slices.Contains(in.Reads(), d) {
			want = machine.Latency(prev.Op)
		}
		if uint64(stall[pc]) != want {
			return fmt.Errorf("stall[%d] = %d, want %d (%v after %v)", pc, stall[pc], want, *in, *prev)
		}
	}
	return nil
}
