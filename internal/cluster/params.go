package cluster

import (
	"time"

	"migrrdma/internal/criu"
)

// FastCheckpointTestbed keeps the RNIC and fabric calibration (see
// Config) but shrinks CRIU's fixed costs. Experiments that measure
// properties orthogonal to checkpoint cost (the Fig. 4 wait-before-stop
// study) use it so the simulated traffic volume stays tractable.
func FastCheckpointTestbed(seed int64) Config {
	return Config{
		Seed: seed,
		CRIU: criu.Config{
			DumpBase:  time.Millisecond,
			FreezeLat: time.Millisecond,
			ThawLat:   time.Millisecond,
		},
	}
}
