// The benchmark is a module of its own so that it builds from its own
// build file; the module path sits under migrrdma/ so that it may import
// the simulator's internal packages, which the replace directive finds
// one directory up.
module migrrdma/bench

go 1.22

require migrrdma v0.0.0

replace migrrdma => ../
