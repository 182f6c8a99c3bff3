package replay

import (
	"math/rand"
	"sync"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/mem"
)

func TestWarmWorkerMatchesColdRun(t *testing.T) {
	fx := setupFixture(t)
	android, err := aot.Compile(fx.prog)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewTemplate(fx.store, fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tmpl.NewWorker()
	for _, tier := range []struct {
		name string
		req  Request
	}{
		{"interp", Request{Snapshot: fx.snap, Prog: fx.prog, Tier: TierInterp}},
		{"compiled", Request{Snapshot: fx.snap, Prog: fx.prog, Tier: TierCompiled, Code: android}},
	} {
		cold := tier.req
		cold.ASLRSeed = 1
		resCold, err := Run(fx.dev, fx.store, cold)
		if err != nil {
			t.Fatalf("%s cold: %v", tier.name, err)
		}
		warm := tier.req
		warm.Worker = w
		resWarm, err := Run(fx.dev, fx.store, warm)
		if err != nil {
			t.Fatalf("%s warm: %v", tier.name, err)
		}
		if resWarm.Ret != resCold.Ret || resWarm.Cycles != resCold.Cycles {
			t.Errorf("%s: warm (ret %d, cycles %d) != cold (ret %d, cycles %d)",
				tier.name, int64(resWarm.Ret), resWarm.Cycles, int64(resCold.Ret), resCold.Cycles)
		}
		if resWarm.Collisions != resCold.Collisions {
			t.Errorf("%s: warm collisions %d != cold %d", tier.name, resWarm.Collisions, resCold.Collisions)
		}
	}
}

func TestWarmWorkerRepeatedRunsIdentical(t *testing.T) {
	fx := setupFixture(t)
	tmpl, err := NewTemplate(fx.store, fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tmpl.NewWorker()
	var ret, cycles uint64
	for i := 0; i < 6; i++ {
		res, err := Run(fx.dev, fx.store, Request{
			Snapshot: fx.snap, Prog: fx.prog, Tier: TierInterp, Worker: w,
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			ret, cycles = res.Ret, res.Cycles
			continue
		}
		if res.Ret != ret || res.Cycles != cycles {
			t.Fatalf("run %d diverged: ret %d cycles %d, want ret %d cycles %d",
				i, int64(res.Ret), res.Cycles, int64(ret), cycles)
		}
	}
	if w.Runs() != 6 {
		t.Errorf("worker ran %d times, want 6", w.Runs())
	}
}

func TestWorkerRejectsForeignSnapshot(t *testing.T) {
	fx := setupFixture(t)
	fx2 := setupFixture(t)
	tmpl, err := NewTemplate(fx.store, fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tmpl.NewWorker()
	if _, err := Run(fx2.dev, fx2.store, Request{
		Snapshot: fx2.snap, Prog: fx2.prog, Tier: TierInterp, Worker: w,
	}); err == nil {
		t.Fatal("replaying a foreign snapshot on a bound worker did not error")
	}
}

// TestConcurrentTemplateClonesAgree is the -race exercise from the issue:
// many workers cloned from one template replay concurrently and must all
// reproduce the same result without touching each other or the template.
func TestConcurrentTemplateClonesAgree(t *testing.T) {
	fx := setupFixture(t)
	tmpl, err := NewTemplate(fx.store, fx.snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(fx.dev, fx.store, Request{
		Snapshot: fx.snap, Prog: fx.prog, Tier: TierInterp, ASLRSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tmpl.NewWorker()
			for r := 0; r < rounds; r++ {
				res, err := Run(fx.dev, fx.store, Request{
					Snapshot: fx.snap, Prog: fx.prog, Tier: TierInterp, Worker: w,
				})
				if err != nil {
					t.Errorf("worker %d run %d: %v", i, r, err)
					return
				}
				if res.Ret != ref.Ret || res.Cycles != ref.Cycles {
					t.Errorf("worker %d run %d: ret %d cycles %d, want ret %d cycles %d",
						i, r, int64(res.Ret), res.Cycles, int64(ref.Ret), ref.Cycles)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestPickFreePageBounded(t *testing.T) {
	space := mem.NewAddressSpace()
	const arena = 8
	space.Map(0x7e0000000000, arena*mem.PageSize, mem.ProtRW, "full-arena")
	rng := rand.New(rand.NewSource(1))
	if _, err := pickFreePage(space, rng, arena); err == nil {
		t.Fatal("pickFreePage on an exhausted arena did not error")
	}
	space.Unmap(0x7e0000000000)
	if _, err := pickFreePage(space, rng, arena); err != nil {
		t.Fatalf("pickFreePage with free pages errored: %v", err)
	}
}
