package machine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/lirtest"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/profile"
	"replayopt/internal/progen"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// TestLivenessMatchesDense checks every liveness computation Finalize makes,
// over the code before move folding and before register allocation, against
// the dense reference: identical live-in and live-out membership for every
// register of every block. The inputs are the baseline compiler's code and
// lir's under every pipeline of the compile-identity matrix, over every app
// and three generated programs.
func TestLivenessMatchesDense(t *testing.T) {
	type program struct {
		name   string
		prog   *dex.Program
		static *sa.Result
	}
	var progs []program
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		static := profile.Analyze(app.Prog).Effects
		vra.Attach(static)
		pts.Attach(static)
		progs = append(progs, program{spec.Name, app.Prog, static})
	}
	for _, seed := range []int64{11, 19, 22} {
		name := fmt.Sprintf("progen%d", seed)
		prog, err := minic.CompileSource(name, progen.Generate(rand.New(rand.NewSource(seed)), progen.Default()))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name, prog, profile.Analyze(prog).Effects})
	}
	configs := lirtest.Matrix()
	if testing.Short() {
		configs = configs[:3] // the presets
	}

	var mu sync.Mutex
	checked, failed := 0, 0
	defer machine.OnLiveness(func(err error) {
		mu.Lock()
		defer mu.Unlock()
		checked++
		if err != nil && failed < 10 {
			failed++
			t.Error(err)
		}
	})()

	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := aot.Compile(p.prog); err != nil {
				t.Errorf("%s aot: %v", p.name, err)
			}
			for _, c := range configs {
				for i, m := range p.prog.Methods {
					if !m.Uncompilable {
						lir.CompileMethod(p.prog, dex.MethodID(i), c.Config, nil, p.static)
					}
				}
			}
		}()
	}
	wg.Wait()
	if checked == 0 {
		t.Fatal("no liveness computation was checked")
	}
	t.Logf("%d liveness computations checked", checked)
}
