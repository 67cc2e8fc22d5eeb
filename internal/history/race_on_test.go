//go:build race

package history

// raceEnabled reports that the race detector is instrumenting this build;
// allocation figures are meaningless then (the detector allocates too).
const raceEnabled = true
