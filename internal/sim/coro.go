//go:build go1.23

package sim

import "iter"

// newWorker makes a worker around a fresh coroutine. iter.Pull needs
// go1.23 and the module says go 1.22 (bench/go.mod, which replaces this
// module and may not say more, is why); the build line above raises
// this one file's language version, and on an older toolchain the
// package does not build for want of this function.
func newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}
