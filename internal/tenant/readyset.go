package tenant

import "math/bits"

// readySet is a set of session indexes with insert, delete and successor
// in O(log₆₄ n). Level 0 has one bit per member; bit w of level k+1 is
// set exactly while word w of level k is non-zero, and the top level is
// one word — so a search climbs past a run of empty words instead of
// walking it, however sparse the set and wherever it is asked to start.
type readySet struct {
	levels [][]uint64
}

func (r *readySet) add(i int) {
	for k := 0; ; k++ {
		if k == len(r.levels) {
			// The level below was one word until this add outgrew it: the
			// new top starts as the summary of that word.
			var top uint64
			if k > 0 && r.levels[k-1][0] != 0 {
				top = 1
			}
			r.levels = append(r.levels, []uint64{top})
		}
		w := i >> 6
		for len(r.levels[k]) <= w {
			r.levels[k] = append(r.levels[k], 0)
		}
		word := &r.levels[k][w]
		was := *word
		*word |= 1 << (i & 63)
		if was != 0 || len(r.levels[k]) == 1 {
			return // the levels above already say so, or there are none
		}
		i = w
	}
}

func (r *readySet) remove(i int) {
	for k := 0; k < len(r.levels) && i>>6 < len(r.levels[k]); k++ {
		word := &r.levels[k][i>>6]
		*word &^= 1 << (i & 63)
		if *word != 0 {
			return
		}
		i >>= 6
	}
}

// next returns the smallest member at or after from, or -1.
func (r *readySet) next(from int) int {
	// Climb while the word holding the position has nothing at or after
	// it: the level above says which later word, if any, has.
	pos, k := from, 0
	for ; ; k++ {
		if k == len(r.levels) || pos>>6 >= len(r.levels[k]) {
			return -1
		}
		if word := r.levels[k][pos>>6] &^ (1<<(pos&63) - 1); word != 0 {
			pos = pos&^63 + bits.TrailingZeros64(word)
			break
		}
		pos = pos>>6 + 1
	}
	// Descend to the lowest member under the bit found.
	for ; k > 0; k-- {
		pos = pos<<6 + bits.TrailingZeros64(r.levels[k-1][pos])
	}
	return pos
}
