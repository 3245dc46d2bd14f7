package jobs

import (
	"context"
	"fmt"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// Runner executes the trials [lo, hi) of one grid cell and returns
// their exact partial aggregate. A Runner must be a pure function of
// (cell, lo, hi): the scheduler re-invokes it freely on retry and
// after steals, and the byte-identity contract assumes every
// invocation agrees. The manager's default is DefaultRunner; tests
// substitute wrappers that inject failures, stalls, and poison.
type Runner func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error)

// compileCell builds the cell's catalog network and compiles its
// fabric. A catalog network compiles to a tag fabric in tens of
// microseconds with no N² table, against tens of milliseconds of kernel
// work in a shard at n=10, so nothing is cached: every shard compiles
// its own.
func compileCell(cell Cell) (*sim.Fabric, error) {
	nw, err := topology.Build(cell.Network, cell.Stages)
	if err != nil {
		return nil, err
	}
	return sim.NewFabric(nw.LinkPerms)
}

// DefaultRunner returns the production Runner: it compiles the cell's
// fabric (compileCell), resolves the scenario at the cell's load with
// sim.Scenario.Traffic, and hands the range to engine.RunWaveRange —
// the executor RunWaves shards — with the cell's derived seed root.
func DefaultRunner() Runner {
	return func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		f, err := compileCell(cell)
		if err != nil {
			return engine.WavePartial{}, err
		}
		sc, ok := sim.LookupScenario(cell.Scenario)
		if !ok {
			return engine.WavePartial{}, fmt.Errorf("jobs: unknown scenario %q", cell.Scenario)
		}
		params := sim.DefaultScenarioParams()
		params.Load = cell.Load
		pattern := sc.Traffic(params)
		kernel, err := engine.ParseKernel(cell.Kernel)
		if err != nil {
			return engine.WavePartial{}, err
		}
		cfg := engine.Config{Seed: cell.Seed, Kernel: kernel}
		if cell.FaultRate > 0 {
			cfg.Faults = &sim.FaultPlan{SwitchDeadRate: cell.FaultRate}
		}
		return engine.RunWaveRange(ctx, f, pattern, lo, hi, cfg)
	}
}
