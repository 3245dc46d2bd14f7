package min

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestWithKernel: kernel selection is a pure performance knob — every
// kernel produces the identical WaveStats — and misuse fails loudly.
func TestWithKernel(t *testing.T) {
	nw := MustBuild(Omega, 5)
	ctx := context.Background()
	base, err := Simulate(ctx, nw, WithWaves(130), WithSeed(3), WithKernel(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{KernelAuto, KernelBit} {
		got, err := Simulate(ctx, nw, WithWaves(130), WithSeed(3), WithKernel(k))
		if err != nil {
			t.Fatalf("kernel %q: %v", k, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("kernel %q changed results:\n%+v\n%+v", k, got, base)
		}
	}
	if _, err := Simulate(ctx, nw, WithKernel("simd")); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("unknown kernel: err = %v", err)
	}
	if _, err := SimulateBuffered(ctx, nw, WithKernel(KernelScalar)); err == nil || !strings.Contains(err.Error(), "WithKernel") {
		t.Fatalf("WithKernel on the buffered model: err = %v", err)
	}
}

// TestSimulateShortRunSkipsBitTables: a default-kernel Simulate of
// fewer than 64 waves runs scalar and never builds the network's bit
// tables; a 64-wave one builds them.
func TestSimulateShortRunSkipsBitTables(t *testing.T) {
	nw := MustBuild(Omega, 6)
	ctx := context.Background()
	short, err := Simulate(ctx, nw, WithWaves(32), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	f, err := nw.compiledFabric()
	if err != nil {
		t.Fatal(err)
	}
	if f.BitTablesBuilt() {
		t.Fatal("a 32-wave Simulate built the bit tables")
	}
	scalar, err := Simulate(ctx, nw, WithWaves(32), WithSeed(4), WithKernel(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(short, scalar) {
		t.Fatalf("32-wave auto %+v != scalar %+v", short, scalar)
	}
	if _, err := Simulate(ctx, nw, WithWaves(64), WithSeed(4)); err != nil {
		t.Fatal(err)
	}
	if !f.BitTablesBuilt() {
		t.Fatal("a 64-wave Simulate did not build the bit tables")
	}
}
