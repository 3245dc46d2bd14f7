package engine

import (
	"context"
	"strings"
	"testing"

	"minequiv/internal/perm"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

func TestKernelStringAndParse(t *testing.T) {
	for _, k := range []Kernel{KernelAuto, KernelScalar, KernelBit} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if k, err := ParseKernel(""); err != nil || k != KernelAuto {
		t.Errorf(`ParseKernel("") = %v, %v; want auto`, k, err)
	}
	if _, err := ParseKernel("simd"); err == nil {
		t.Errorf("ParseKernel accepted an unknown kernel")
	}
	if s := Kernel(99).String(); !strings.Contains(s, "99") {
		t.Errorf("Kernel(99).String() = %q", s)
	}
}

// TestKernelsByteIdentical is the tentpole's acceptance property: the
// bit-sliced and scalar kernels produce byte-identical pooled
// aggregates — every counter and both throughput moments — over
// randomized networks × loads × fault plans × worker counts, intact
// and faulted, including wave counts that mix full 64-wide batches
// with a scalar remainder.
func TestKernelsByteIdentical(t *testing.T) {
	plans := []*sim.FaultPlan{
		nil,
		{Faults: []sim.Fault{
			{Kind: sim.SwitchDead, Stage: 0, Cell: 2},
			{Kind: sim.SwitchStuck1, Stage: 2, Cell: 1},
			{Kind: sim.LinkDown, Stage: 1, Link: 5},
		}},
		{SwitchDeadRate: 0.03, SwitchStuckRate: 0.08, LinkDownRate: 0.03},
	}
	loads := []struct {
		name string
		tr   sim.Traffic
	}{
		{"uniform", sim.Uniform()},
		{"bernoulli-0.45", sim.Bernoulli(0.45)},
		{"bursty", sim.Bursty(0.3, 1.0, 0.1)},
	}
	for _, name := range topology.Names() {
		for _, n := range []int{4, 6} {
			f := fabricFor(t, name, n)
			for pi, plan := range plans {
				for _, ld := range loads {
					// 150 waves = two full bit batches plus a 22-wave
					// scalar remainder.
					const waves, seed = 150, 0xC0FFEE
					base, err := RunWaves(context.Background(), f, ld.tr, waves,
						Config{Workers: 1, Seed: seed, Faults: plan, Kernel: KernelScalar})
					if err != nil {
						t.Fatal(err)
					}
					for _, kernel := range []Kernel{KernelBit, KernelAuto} {
						for _, workers := range []int{1, 3, 8} {
							got, err := RunWaves(context.Background(), f, ld.tr, waves,
								Config{Workers: workers, Seed: seed, Faults: plan, Kernel: kernel})
							if err != nil {
								t.Fatal(err)
							}
							if got != base {
								t.Fatalf("%s/n=%d/plan%d/%s kernel=%v workers=%d diverged from scalar:\n bit    %+v\n scalar %+v",
									name, n, pi, ld.name, kernel, workers, got, base)
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelBitRejectsScalarOnlyFabric: forcing the bit kernel on a
// fabric outside its domain must fail loudly, while auto degrades to
// the scalar kernel silently.
func TestKernelBitRejectsScalarOnlyFabric(t *testing.T) {
	N := 16
	perms := make([]perm.Perm, 3)
	for i := range perms {
		perms[i] = perm.Identity(N)
	}
	f, err := sim.NewFabric(perms)
	if err != nil {
		t.Fatal(err)
	}
	if f.BitSliceable() {
		t.Fatal("identity-linked fabric reported bit-sliceable")
	}
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 10, Config{Kernel: KernelBit}); err == nil {
		t.Fatal("KernelBit on a scalar-only fabric: no error")
	}
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 10, Config{Kernel: KernelAuto}); err != nil {
		t.Fatalf("KernelAuto on a scalar-only fabric: %v", err)
	}
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 10, Config{Kernel: Kernel(42)}); err == nil {
		t.Fatal("unknown kernel value: no error")
	}
}

// TestAutoKernelLazyBitTables: under KernelAuto a run that cannot fill
// one 64-trial batch takes the scalar path and leaves the fabric's bit
// tables unbuilt; the first run that can fill one builds them while
// its workers race to create bit runners (run under -race). Results
// match the scalar kernel either way.
func TestAutoKernelLazyBitTables(t *testing.T) {
	ctx := context.Background()
	f := fabricFor(t, topology.NameOmega, 6)
	tr := sim.Bernoulli(0.8)
	for _, waves := range []int{1, 32, 63} {
		auto, err := RunWaves(ctx, f, tr, waves, Config{Workers: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := RunWaves(ctx, f, tr, waves, Config{Workers: 3, Seed: 9, Kernel: KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		if auto != scalar {
			t.Fatalf("%d waves: auto %+v != scalar %+v", waves, auto, scalar)
		}
	}
	for _, r := range [][2]int{{0, 1}, {5, 68}, {100, 132}} {
		auto, err := RunWaveRange(ctx, f, tr, r[0], r[1], Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := RunWaveRange(ctx, f, tr, r[0], r[1], Config{Seed: 9, Kernel: KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		if auto != scalar {
			t.Fatalf("range %v: auto %+v != scalar %+v", r, auto, scalar)
		}
	}
	if f.BitTablesBuilt() {
		t.Fatal("runs shorter than one 64-trial batch built the bit tables")
	}
	const waves = 4 * 64
	auto, err := RunWaves(ctx, f, tr, waves, Config{Workers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !f.BitTablesBuilt() {
		t.Fatal("a 256-wave auto run did not build the bit tables")
	}
	scalar, err := RunWaves(ctx, f, tr, waves, Config{Workers: 4, Seed: 9, Kernel: KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	if auto != scalar {
		t.Fatalf("%d waves: auto %+v != scalar %+v", waves, auto, scalar)
	}
}
