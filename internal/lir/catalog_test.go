package lir

import (
	"maps"
	"testing"

	"replayopt/internal/machine"
)

func TestCatalogCardinalityMatchesPaper(t *testing.T) {
	opt := OptCatalog()
	if len(opt) != NumOptPassConfigs {
		t.Errorf("opt catalog has %d entries, want %d", len(opt), NumOptPassConfigs)
	}
}

func TestCatalogIsDeterministic(t *testing.T) {
	a, b := OptCatalog(), OptCatalog()
	for i := range a {
		if a[i].Spec.Name != b[i].Spec.Name || a[i].Unsafe != b[i].Unsafe {
			t.Fatalf("catalog entry %d differs between calls", i)
		}
	}
}

func TestCatalogEntriesAllResolve(t *testing.T) {
	for _, e := range OptCatalog() {
		if _, ok := PassByName(e.Spec.Name); !ok {
			t.Errorf("catalog entry %d references unknown pass %q", e.ID, e.Spec.Name)
		}
	}
}

func TestCatalogHasUnsafeShare(t *testing.T) {
	unsafe := 0
	for _, e := range OptCatalog() {
		if e.Unsafe {
			unsafe++
		}
	}
	// Fig. 1 needs a meaningful share of dangerous configurations; the
	// exact outcome mix is measured end to end in the experiments.
	if unsafe < 10 || unsafe > NumOptPassConfigs/2 {
		t.Errorf("unsafe catalog share = %d/%d, outside plausible range", unsafe, NumOptPassConfigs)
	}
}

// TestApplyLlcRoundTrip checks both directions of the llc mapping for every
// option at its Min, Max and Default, alone and with every other option at
// the same end of its range.
func TestApplyLlcRoundTrip(t *testing.T) {
	if got := ApplyLlc(nil); got != (LowerOpts{Machine: machine.DefaultLowerOpts()}) {
		t.Fatalf("ApplyLlc(nil) = %+v, want the default lowering", got)
	}
	check := func(m map[string]int) {
		t.Helper()
		lo := ApplyLlc(m)
		if got := LlcFromLower(lo); !maps.Equal(got, m) {
			t.Errorf("LlcFromLower(ApplyLlc(%v)) = %v", m, got)
		}
		if back := ApplyLlc(LlcFromLower(lo)); back != lo {
			t.Errorf("ApplyLlc(LlcFromLower(%+v)) = %+v", lo, back)
		}
	}
	mins, maxs := map[string]int{}, map[string]int{}
	for _, o := range LlcCatalog() {
		for _, v := range []int{o.Min, o.Max, o.Default} {
			m := map[string]int{}
			if v != o.Default {
				m[o.Name] = v
			}
			check(m)
		}
		if o.Min != o.Default {
			mins[o.Name] = o.Min
		}
		if o.Max != o.Default {
			maxs[o.Name] = o.Max
		}
	}
	check(mins)
	check(maxs)
	// Names steer the fields lowering reads.
	lo := ApplyLlc(map[string]int{
		"fuse-literals": 1, "fused-addressing": 1, "list-schedule": 1, "num-regs": 12,
	})
	if !lo.Machine.FuseLiterals || !lo.FusedAddressing || !lo.Machine.Schedule || lo.Machine.NumRegs != 12 ||
		lo.Machine.FuseMaddInt || lo.Machine.FuseMaddFloat || lo.Machine.BlockAlign {
		t.Errorf("ApplyLlc set the wrong fields: %+v", lo)
	}
	// Every knob moved at once survives the trip.
	lo = LowerOpts{FusedAddressing: true, Machine: machine.LowerOpts{
		FuseLiterals: true, FuseMaddInt: true, FuseMaddFloat: true,
		Schedule: true, NumRegs: 12, BlockAlign: true}}
	if back := ApplyLlc(LlcFromLower(lo)); back != lo {
		t.Errorf("ApplyLlc(LlcFromLower(%+v)) = %+v", lo, back)
	}
}

func TestSafeOptCatalogExcludesUnsafeDefaults(t *testing.T) {
	safe := SafeOptCatalog()
	if len(safe) == 0 || len(safe) >= NumOptPassConfigs {
		t.Fatalf("safe catalog size %d of %d", len(safe), NumOptPassConfigs)
	}
	for _, e := range safe {
		if e.Unsafe {
			t.Fatalf("unsafe entry %q leaked into SafeOptCatalog", e.Spec.Name)
		}
	}
	// Known-dangerous configurations must be absent.
	for _, e := range safe {
		if e.Spec.Name == "unroll" && e.Spec.Params["no-remainder"] == 1 {
			t.Error("remainder-dropping unroll in safe catalog")
		}
		if e.Spec.Name == "dse" && e.Spec.Params["alias-blind"] == 1 {
			t.Error("alias-blind DSE in safe catalog")
		}
	}
}

func TestPresetLookup(t *testing.T) {
	for _, name := range []string{"O0", "O1", "O2", "O3", "-O2"} {
		if _, ok := Preset(name); !ok {
			t.Errorf("Preset(%q) missing", name)
		}
	}
	if _, ok := Preset("Ofast"); ok {
		t.Error("Preset accepted an unknown level")
	}
	// Levels must be strictly increasing in pipeline size.
	o1, _ := Preset("O1")
	o2, _ := Preset("O2")
	o3, _ := Preset("O3")
	if !(len(o1.Passes) < len(o2.Passes) && len(o2.Passes) < len(o3.Passes)) {
		t.Errorf("preset sizes not increasing: %d/%d/%d",
			len(o1.Passes), len(o2.Passes), len(o3.Passes))
	}
}
