//go:build race

package gpusim

// raceEnabled reports a -race build, whose sync.Pool drops items at random,
// so allocation counts there say nothing about the pooled launch scratch.
const raceEnabled = true
