package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestCompileContextCanceled: an already-canceled context must fail
// the compilation with the context error instead of hanging or
// returning a bogus result.
func TestCompileContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	comp := NewCompiler(arch.IBMQ16(0))
	for _, s := range Strategies {
		if _, err := comp.CompileContext(ctx, pairWorkload(), s); err == nil {
			t.Fatalf("%s: canceled context should fail compilation", s)
		}
	}
}

// TestSimulateContextCanceled: the simulation variants must honor an
// already-canceled context.
func TestSimulateContextCanceled(t *testing.T) {
	comp := NewCompiler(arch.IBMQ16(0))
	res, err := comp.Compile(pairWorkload(), Separate)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := comp.SimulateContext(ctx, res, 32, 1, sim.DefaultNoise()); err == nil {
		t.Fatal("canceled context should fail simulation")
	}
	if _, err := comp.SimulateCliffordContext(ctx, res, 32, 1, sim.DefaultNoise()); err == nil {
		t.Fatal("canceled context should fail Clifford simulation")
	}
}

// TestContextVariantsMatchPlain: with a live context the ctx variants
// must be bit-identical to the plain API (the PR 3 determinism
// contract extends to context plumbing).
func TestContextVariantsMatchPlain(t *testing.T) {
	d := arch.IBMQ16(0)
	progs := pairWorkload()
	ctx := context.Background()

	plainComp := NewCompiler(d)
	ctxComp := NewCompiler(d)
	plainRes, err := plainComp.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := ctxComp.CompileContext(ctx, progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.CNOTs != ctxRes.CNOTs || plainRes.Depth != ctxRes.Depth {
		t.Fatalf("context compile diverged: plain (cnots=%d depth=%d) vs ctx (cnots=%d depth=%d)",
			plainRes.CNOTs, plainRes.Depth, ctxRes.CNOTs, ctxRes.Depth)
	}

	noise := sim.DefaultNoise()
	plainPSTs, err := plainComp.Simulate(plainRes, 64, 3, noise)
	if err != nil {
		t.Fatal(err)
	}
	ctxPSTs, err := ctxComp.SimulateContext(ctx, ctxRes, 64, 3, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainPSTs) != len(ctxPSTs) {
		t.Fatalf("PST count diverged: %d vs %d", len(plainPSTs), len(ctxPSTs))
	}
	for i := range plainPSTs {
		if plainPSTs[i] != ctxPSTs[i] {
			t.Fatalf("PST[%d] diverged: %v vs %v", i, plainPSTs[i], ctxPSTs[i])
		}
	}
}

// TestPartitionFailureFailsCompile: the CDAP partition is computed once
// and shared by every attempt, so a partitioner error (an oversized
// workload) or panic (a device whose 1q error table is too short for
// EPST) must come back as the compilation's error, never unwind the
// caller, for every strategy that partitions with CDAP.
func TestPartitionFailureFailsCompile(t *testing.T) {
	big := []*circuit.Circuit{nisqbench.MustGet("qft_10"), nisqbench.MustGet("bv_n10")}
	for _, s := range []Strategy{CDAPOnly, CDAPXSwap} {
		if _, err := NewCompiler(arch.IBMQ16(0)).Compile(big, s); !errors.Is(err, partition.ErrNoRegion) {
			t.Fatalf("%s: err = %v, want ErrNoRegion", s, err)
		}
	}
	d := arch.IBMQ16(0)
	d.Gate1Err = d.Gate1Err[:2]
	comp := NewCompiler(d)
	comp.Attempts = 3
	for _, s := range []Strategy{Separate, CDAPOnly, CDAPXSwap} {
		_, err := comp.CompileContext(context.Background(), pairWorkload(), s)
		if err == nil || !strings.Contains(err.Error(), "partition panicked") {
			t.Fatalf("%s: err = %v, want the partition panic", s, err)
		}
	}
}
