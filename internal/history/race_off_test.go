//go:build !race

package history

const raceEnabled = false
