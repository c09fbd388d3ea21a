package sim

import "sync"

// A simulation is one Scheduler on one goroutine. What runs in parallel
// is whole simulations that share nothing: the chaos sweep's runs.
// This file is all of it, plus DeriveSeed, which gives each simulation
// of a series (the fixed benchmark's reps) a seed of its own.

// DeriveSeed deterministically derives the seed of sub-stream i from
// the root seed (splitmix64 of the pair), so the streams are
// decorrelated but fully determined by (root, i).
func DeriveSeed(root int64, i int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunIndexed executes fn(0), …, fn(n-1) on a pool of `workers`
// goroutines, returning when all calls finish. Callers write results
// into per-index slots, so the pool changes wall-clock only, never
// output. A worker count below one means one.
func RunIndexed(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
